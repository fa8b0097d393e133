"""Self-tests of the benchmark at tiny sizes (about a minute):

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import importlib
import json
import sys
import unittest

import run
import tracer
import worker
from workloads import WORKLOADS, Op, build_ops, check

sys.path.insert(0, str(worker.SRC))
import garside.cli  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _units(metrics: dict) -> dict:
    return {name: m["unit"] for name, m in metrics.items()}


def _run_one(op: Op):
    _, [(rc, out)], _ = worker.run_ops(garside.cli, [op])
    return rc, out


class MetricNames(unittest.TestCase):
    def test_code_and_benchmark_json_name_the_same_metrics(self):
        self.assertEqual(dict(run.END_TO_END),
                         {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]})
        self.assertEqual(dict(tracer.PER_LAYER),
                         {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]})
        self.assertEqual(list(WORKLOADS), [w["name"] for w in BENCHMARK["workloads"]])


class BatchCount(unittest.TestCase):
    def test_a_run_takes_fixed_batches_that_fit_its_length(self):
        seconds = BENCHMARK["run_seconds"]
        for w in WORKLOADS:
            n = run.batch_count(w, seconds)
            self.assertGreaterEqual(n, 1, w)
            self.assertLessEqual(n * run.BATCH_S[w], seconds, w)
            self.assertEqual(run.batch_count(w, 0), 1, w)


class TinyRuns(unittest.TestCase):
    """Every workload, shrunk, through the same worker processes as a run."""

    @classmethod
    def setUpClass(cls):
        cls.measured = {w: run.measure(w, 7, 0, tiny=True) for w in WORKLOADS}
        cls.traced = {w: run.trace(w, 7, tiny=True) for w in WORKLOADS}

    def test_every_metric_is_emitted_with_its_unit(self):
        for w in WORKLOADS:
            for result, spec in ((self.measured[w], run.END_TO_END),
                                 (self.traced[w], tracer.PER_LAYER)):
                self.assertEqual(_units(result["metrics"]), dict(spec), w)
                self.assertTrue(result["correct"], w)
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)
                for m in result["metrics"].values():
                    self.assertIsInstance(m["value"], (int, float))

    def test_timings_are_positive(self):
        for w in WORKLOADS:
            for name, m in self.measured[w]["metrics"].items():
                self.assertGreater(m["value"], 0, (w, name))

    def _layer(self, w: str, prefix: str) -> dict:
        return {k: m["value"] for k, m in self.traced[w]["metrics"].items()
                if k.startswith(prefix)}

    def test_layers_a_workload_does_not_use_read_zero(self):
        for w, prefix in (("nf-long", "circuits."), ("nf-long", "experiments."),
                          ("table-artin", "bkl."), ("table-bkl", "artin.")):
            layer = self._layer(w, prefix)
            self.assertTrue(layer)
            self.assertEqual(set(layer.values()), {0}, (w, prefix))

    def test_layers_a_workload_uses_read_nonzero(self):
        for w, metric in (("table-artin", "artin.meet_simple.calls"),
                          ("table-artin", "circuits.compute_sss.conjugations"),
                          ("table-artin", "experiments.candidates"),
                          ("table-bkl", "bkl.from_perm.calls"),
                          ("conj-random", "circuits.solve_csp.calls"),
                          ("conj-random", "circuits.arrow_yield"),
                          ("nf-long", "core.left_normal_form.calls"),
                          ("nf-long", "trace.overhead")):
            self.assertGreater(self.traced[w]["metrics"][metric]["value"], 0, (w, metric))


class Oracle(unittest.TestCase):
    def test_accepts_real_outputs(self):
        for w in WORKLOADS:
            for op in build_ops(w, 3, 0, tiny=True):
                self.assertIsNone(check(op, *_run_one(op)), op.argv)

    def test_flags_a_corrupted_table_row(self):
        [op] = build_ops("table-artin", 3, 0, tiny=True)
        rc, out = _run_one(op)
        self.assertIsNotNone(check(op, rc, out.replace(",9,", ",8,", 1)))
        self.assertIsNotNone(check(op, 3, out))

    def test_flags_a_corrupted_trajectory(self):
        op = build_ops("nf-long", 3, 0, tiny=True)[0]
        rc, out = _run_one(op)
        self.assertIsNotNone(check(op, rc, out.replace("period", "periods")))

    def test_flags_wrong_conjugacy_answers(self):
        ops = build_ops("conj-random", 3, 0, tiny=True)
        planted = next(op for op in ops if op.expect["planted"])
        rc, out = _run_one(planted)
        self.assertEqual(rc, 0)
        self.assertIsNotNone(check(planted, 1, "NO\n"))
        self.assertIsNotNone(check(planted, 0, "YES " + "s1 " * 7 + "\n"))
        self.assertIsNotNone(check(planted, 0, "YES s9\n"))
        self.assertIsNotNone(check(planted, 1, out))
        self.assertIsNotNone(check(planted, "crash: ValueError()", ""))

    def test_a_fault_injected_into_the_cli_fails_every_op(self):
        class Corrupting:
            @staticmethod
            def main(argv):
                rc = garside.cli.main(argv)
                print("extra line")
                return rc

        ops = build_ops("nf-long", 3, 0, tiny=True) + build_ops("table-artin", 3, 0, tiny=True)
        _, outputs, _ = worker.run_ops(Corrupting, ops)
        self.assertTrue(all(check(op, rc, out) for op, (rc, out) in zip(ops, outputs)))


class Inputs(unittest.TestCase):
    def test_same_seed_same_inputs_other_seed_other_inputs(self):
        for w in ("conj-random", "nf-long"):
            a = [op.argv for op in build_ops(w, 5, 1)]
            self.assertEqual(a, [op.argv for op in build_ops(w, 5, 1)])
            self.assertNotEqual(a, [op.argv for op in build_ops(w, 6, 1)])
            self.assertNotEqual(a, [op.argv for op in build_ops(w, 5, 2)])

    def test_conj_pairs_are_half_planted(self):
        ops = build_ops("conj-random", 5, 0)
        self.assertEqual(2 * sum(op.expect["planted"] for op in ops), len(ops))


class Recorder(unittest.TestCase):
    def test_restore_puts_every_original_back(self):
        mods = [importlib.import_module("garside")] + [
            importlib.import_module(f"garside.{m}") for m in tracer.MODULES]
        classes = [getattr(importlib.import_module(f"garside.{m}"), c)
                   for m, c in tracer.METHODS]
        before = [dict(vars(m)) for m in mods + classes]
        t = tracer.Tracer()
        t.install()
        self.assertIsNot(garside.cli.main, before[1]["main"])
        t.restore()
        self.assertEqual([dict(vars(m)) for m in mods + classes], before)

    def test_self_time_excludes_child_spans(self):
        t = tracer.Tracer()
        t.install()
        try:
            _run_one(build_ops("nf-long", 3, 0, tiny=True)[0])
        finally:
            t.restore()
        agg = t.aggregates()
        main_calls, main_self = agg[("cli.main", tracer.ROOT)]
        self.assertEqual(main_calls, 1)
        spans = {t.names[idx]: (t1 - t0) for _, _, _, idx, t0, t1 in t.spans
                 if t.names[idx] == "cli.main"}
        self.assertLess(main_self, spans["cli.main"])
        self.assertGreater(main_self, 0)


if __name__ == "__main__":
    unittest.main()
