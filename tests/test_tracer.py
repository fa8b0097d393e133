"""The benchmark's tracer (perfbench/tracer.py) still fits the package.

The tracer wraps package functions and structure methods by name, so a
renamed method breaks `perfbench/run.py --trace 1`.  Installing it here,
running one small command and restoring it makes that a test failure.
"""

import importlib
import sys
from pathlib import Path

import garside.cli
from garside.artin import ArtinStructure
from garside.bkl import BKLStructure

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _attributes(tracer):
    """Every attribute the tracer patches, by owner."""
    out = {}
    for short in tracer.MODULES:
        mod = importlib.import_module(f"garside.{short}")
        out[mod] = dict(vars(mod))
        for (owner, cls_name) in tracer.METHODS:
            if owner == short:
                cls = getattr(mod, cls_name)
                out[cls] = dict(vars(cls))
    return out


def test_tracer_installs_runs_a_table_and_restores(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "tracer", raising=False)
    tracer = importlib.import_module("tracer")
    before = _attributes(tracer)
    t = tracer.Tracer()
    t.install()
    try:
        # through the module, as the benchmark worker calls it, so the
        # wrapped main is the one called
        assert garside.cli.main(["--n", "4", "--format", "csv", "table"]) == 0
    finally:
        t.restore()
    assert capsys.readouterr().out.splitlines()[1] == (
        "artin,4,0,9,4,4,2,2.44444,2.22222,1.11111,3.09091,2.72727,1.18182")
    assert _attributes(tracer) == before
    calls = {}
    for (name, _), (c, _) in t.aggregates().items():
        calls[name] = calls.get(name, 0) + c
    assert calls["cli.main"] == 1
    for name in ("experiments.enumerate_length_one_classes", "circuits.compute_sss",
                 "core.conjugate_simple", "artin.meet_simple", "artin.lquot"):
        assert calls.get(name, 0) > 0, name
    assert t.counts["classes"] == 9


def test_tracer_counts_complement_misses_of_structures_built_before_install(monkeypatch, capsys):
    """The benchmark worker builds its structures before the tracer wraps
    the classes, so each complement memo must look up `_complement` on a
    miss: a compute bound when the structure was built would hide every
    `*.complement_miss`."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "tracer", raising=False)
    tracer = importlib.import_module("tracer")
    artin, bkl = ArtinStructure(4), BKLStructure(4)
    monkeypatch.setattr(garside.cli, "artin_structure", lambda n: artin)
    monkeypatch.setattr(garside.cli, "bkl_structure", lambda n: bkl)
    t = tracer.Tracer()
    t.install()
    try:
        for structure in ("artin", "bkl"):
            assert garside.cli.main(["--structure", structure, "--n", "4", "table"]) == 0
    finally:
        t.restore()
    capsys.readouterr()
    calls = {}
    for (name, _), (c, _) in t.aggregates().items():
        calls[name] = calls.get(name, 0) + c
    assert calls.get("artin.complement_miss", 0) > 0
    assert calls.get("bkl.complement_miss", 0) > 0
