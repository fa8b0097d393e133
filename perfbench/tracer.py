"""Traced-run recorder: spans around the public functions of garside.

The recorder wraps, from outside the package, every public function of the
modules below, wherever a module holds a reference to it (so names
re-imported elsewhere, such as ``circuits.conjugate_simple``, are wrapped
too), and the simple-element methods of the structure classes.  A span has
a name, start, end, parent span and op id.  At span close its duration is
added to the parent's child time, so self time (duration minus the time
covered by child spans) and per-parent call counts are aggregated over
every span.  Span records are kept in memory up to ``SPAN_CAP`` and written
out at the end; the cap bounds memory on runs with millions of simple-op
calls and does not affect the aggregates.  ``restore`` puts every original
back.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import json
import time

MODULES = ("cli", "words", "experiments", "circuits", "sliding", "core", "artin", "bkl")

# structure methods, by (module, class), mapped to span names; the cache
# misses behind GarsideStructure.complement/complement_inv are counted as
# <structure>.complement_miss
SIMPLE_OPS = ("leq", "meet_simple", "prod", "lquot", "simples")
METHODS = {
    ("core", "GarsideStructure"): {
        "complement": "core.complement",
        "complement_inv": "core.complement",
    },
    ("artin", "ArtinStructure"): {
        **{m: f"artin.{m}" for m in SIMPLE_OPS},
        "_complement": "artin.complement_miss",
        "_complement_inv": "artin.complement_miss",
    },
    ("bkl", "BKLStructure"): {
        **{m: f"bkl.{m}" for m in SIMPLE_OPS + ("to_perm", "from_perm")},
        "_complement": "bkl.complement_miss",
        "_complement_inv": "bkl.complement_miss",
    },
}

ROOT = "<op>"  # parent of cli.main: the benchmark's op loop
SPAN_CAP = 100_000  # span records kept for the dump


class Tracer:
    def __init__(self) -> None:
        self.names = [ROOT]
        self.op = 0
        self.spans: list = []  # (span id, parent span id, op id, name index, start, end)
        self.counts = {"sss_vertices": 0, "scg_vertices": 0, "scg_arrows": 0,
                       "trajectory_states": 0, "classes": 0}
        self._stack = [[0, 0.0, 0]]  # frames: [name index, child time, span id]
        self._calls: dict = {}  # (name index, parent name index) -> [calls, self time]
        self._patched: list = []  # (owner, attribute, original)
        self._ids = itertools.count(1)

    # -- install / restore -------------------------------------------------

    def install(self) -> None:
        mods = {m: importlib.import_module(f"garside.{m}") for m in MODULES}
        wrapped = {}  # id(original) -> wrapper
        for short, mod in mods.items():
            for attr, val in vars(mod).items():
                if (inspect.isfunction(val) and not attr.startswith("_")
                        and val.__module__ == mod.__name__):
                    wrapped[id(val)] = self._wrap(val, f"{short}.{attr}")
        for mod in [importlib.import_module("garside"), *mods.values()]:
            for attr, val in list(vars(mod).items()):
                if id(val) in wrapped:
                    self._patch(mod, attr, wrapped[id(val)])
        for (short, cls_name), methods in METHODS.items():
            cls = getattr(mods[short], cls_name)
            for attr, name in methods.items():
                self._patch(cls, attr, self._wrap(cls.__dict__[attr], name))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, wrapper) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _observer(self, name: str):
        """Counts read from a layer's results."""
        c = self.counts
        if name == "circuits.compute_sss":
            def observe(r):
                c["sss_vertices"] += len(r)
        elif name == "circuits.compute_scg":
            def observe(r):
                c["scg_vertices"] += len(r.vertices)
                c["scg_arrows"] += len(r.arrows)
        elif name == "sliding.sliding_trajectory":
            def observe(r):
                c["trajectory_states"] += len(r.states)
        elif name == "experiments.enumerate_length_one_classes":
            def observe(r):
                c["classes"] += len(r)
        else:
            return None
        return observe

    def _wrap(self, fn, name: str):
        if name not in self.names:
            self.names.append(name)
        idx = self.names.index(name)
        stack, calls, spans = self._stack, self._calls, self.spans
        ids = self._ids
        clock = time.perf_counter
        observe = self._observer(name)
        tracer = self

        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [idx, 0.0, next(ids)]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                parent[1] += dur
                agg = calls.get((idx, parent[0]))
                if agg is None:
                    agg = calls[(idx, parent[0])] = [0, 0.0]
                agg[0] += 1
                agg[1] += dur - frame[1]
                if len(spans) < SPAN_CAP:
                    spans.append((frame[2], parent[2], tracer.op, idx, t0, t1))
            if observe is not None:
                observe(result)
            return result

        return traced

    # -- results -------------------------------------------------------------

    def aggregates(self) -> dict:
        """{(name, parent name): (calls, self seconds)} over every span."""
        n = self.names
        return {(n[i], n[p]): (c, s) for (i, p), (c, s) in self._calls.items()}

    def dump(self, path, meta: dict) -> None:
        """Write metadata, per-(name, parent) aggregates and the kept spans
        as JSON lines."""
        with open(path, "w") as f:
            f.write(json.dumps({"meta": meta, "names": self.names,
                                "span_cap": SPAN_CAP,
                                "spans_kept": len(self.spans),
                                "counts": self.counts}) + "\n")
            for (name, parent), (c, s) in sorted(self.aggregates().items()):
                f.write(json.dumps({"name": name, "parent": parent,
                                    "calls": c, "self_s": s}) + "\n")
            for sid, parent, op, idx, t0, t1 in self.spans:
                f.write(json.dumps([sid, parent, op, self.names[idx], t0, t1]) + "\n")


def _calls_self(module: str, names) -> list:
    out = []
    for n in names:
        out += [(f"{module}.{n}.calls", "count"), (f"{module}.{n}.self_s", "s")]
    return out


STRUCTURE_OPS = ("leq", "meet_simple", "prod", "lquot", "complement_miss", "simples")

PER_LAYER = [
    *_calls_self("cli", ["main"]),
    *_calls_self("words", ["parse_word", "render_element"]),
    ("experiments.enumerate_length_one_classes.self_s", "s"),
    ("experiments.candidates", "count"),
    ("experiments.class_yield", "ratio"),
    *_calls_self("circuits", ["compute_sss", "compute_scg",
                              "indecomposable_conjugators", "solve_csp"]),
    ("circuits.compute_sss.conjugations", "count"),
    ("circuits.indecomposable_conjugators.conjugations", "count"),
    ("circuits.membership_trajectories", "count"),
    ("circuits.arrow_yield", "ratio"),
    ("circuits.sss_vertices", "count"),
    ("circuits.scg_vertices", "count"),
    ("circuits.scg_arrows", "count"),
    *_calls_self("sliding", ["sliding_trajectory", "preferred_prefix"]),
    ("sliding.slide_to_circuit.calls", "count"),
    ("sliding.trajectory_states", "count"),
    *_calls_self("core", ["left_normal_form", "multiply", "inverse",
                          "conjugate", "conjugate_simple"]),
    ("core.complement.calls", "count"),
    ("core.complement.miss_ratio", "ratio"),
    *_calls_self("artin", STRUCTURE_OPS),
    *_calls_self("bkl", STRUCTURE_OPS + ("to_perm", "from_perm")),
    ("trace.overhead", "ratio"),
]


def per_layer_metrics(aggregates: dict, counts: dict, overhead: float) -> dict:
    """Every PER_LAYER metric as {name: {"value", "unit"}}.

    Ratios with a zero base read 0, so a layer that did no work reads 0
    throughout.
    """
    calls: dict = {}
    self_s: dict = {}
    by_parent: dict = {}
    for (name, parent), (c, s) in aggregates.items():
        calls[name] = calls.get(name, 0) + c
        self_s[name] = self_s.get(name, 0.0) + s
        by_parent[(name, parent)] = c

    def ratio(a, b):
        return a / b if b else 0.0

    scan = by_parent.get(("core.conjugate_simple", "circuits.indecomposable_conjugators"), 0)
    candidates = by_parent.get(("sliding.slide_to_circuit",
                                "experiments.enumerate_length_one_classes"), 0)
    misses = calls.get("artin.complement_miss", 0) + calls.get("bkl.complement_miss", 0)
    derived = {
        "experiments.candidates": candidates,
        "experiments.class_yield": ratio(counts["classes"], candidates),
        "circuits.compute_sss.conjugations":
            by_parent.get(("core.conjugate_simple", "circuits.compute_sss"), 0),
        "circuits.indecomposable_conjugators.conjugations": scan,
        "circuits.membership_trajectories":
            by_parent.get(("sliding.sliding_trajectory",
                           "circuits.indecomposable_conjugators"), 0),
        "circuits.arrow_yield": ratio(counts["scg_arrows"], scan),
        "circuits.sss_vertices": counts["sss_vertices"],
        "circuits.scg_vertices": counts["scg_vertices"],
        "circuits.scg_arrows": counts["scg_arrows"],
        "sliding.trajectory_states": counts["trajectory_states"],
        "core.complement.miss_ratio": ratio(misses, calls.get("core.complement", 0)),
        "trace.overhead": overhead,
    }
    out = {}
    for metric, unit in PER_LAYER:
        if metric in derived:
            value = derived[metric]
        elif metric.endswith(".calls"):
            value = calls.get(metric[: -len(".calls")], 0)
        else:
            value = self_s.get(metric[: -len(".self_s")], 0.0)
        out[metric] = {"value": value, "unit": unit}
    return out
