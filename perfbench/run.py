"""The garside benchmark: one run of one workload, one JSON result line.

    python3 perfbench/run.py --workload nf-long --seed 1 --seconds 25 --trace 0

Every batch runs in a fresh interpreter (``worker.py``), one process at a
time, so memo caches start cold as they do for a CLI user.  Interpreters
start with ``-S``: garside and the benchmark are stdlib-only, and the
``.pth`` files in the host Python's site-packages, which run at every
start, are not garside's set-up.

``--trace 0`` measures.  Nine set-up-only interpreters, then a fixed number
of batches: ``--seconds`` divided by the workload's nominal batch time
(``workloads.BATCH_S``), rounded down, at least one.  The count does not
depend on how fast the host runs, so every run takes the same samples.
Batch b of seed s has its own inputs.  Prints the end-to-end metrics:

  setup_s      median time from spawning an interpreter to its structures
               being built (import garside, structures, their simples)
  wall_s       median duration of a batch's timed phase
  op_p50_ms    median latency of one ``main(argv)`` call, over all batches
  op_p90_ms    90th percentile of the same
  peak_rss_mb  median ``ru_maxrss`` of the batch interpreters

``--trace 1`` runs batch 0 untraced, then batch 0 again with every layer
wrapped (``tracer.py``), and prints the per-layer metrics.  The spans go to
``perfbench/out/trace-<workload>-seed<seed>.jsonl``.

``attempted`` counts ops; ``failed`` counts ops that crashed, exited with
an unexpected code or failed the oracle in ``workloads.check``.  Their
quotient is the error rate.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import time

from tracer import per_layer_metrics
from workloads import BATCH_S, WORKLOADS

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

DEFAULT_SEED = 1
END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
]
SETUP_SAMPLES = 9
WORKER_TIMEOUT_S = 170


def batch_count(workload: str, seconds: float) -> int:
    return max(1, math.floor(seconds / BATCH_S[workload]))


def percentile(values, q: float) -> float:
    """Linear interpolation between the two nearest ranks.  On the few ops
    of a ``table-bkl`` run this averages two samples where the nearest
    rank would read one, so one slow op moves it half as much."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def metadata() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "commit": _commit(),
    }


def run_worker(workload: str, seed: int, batch: int, tiny: bool, *extra: str) -> dict:
    cmd = [sys.executable, "-S", str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--batch", str(batch), *extra]
    if tiny:
        cmd.append("--tiny")
    spawned = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["setup_s"] = result.pop("ready") - spawned
    return result


def _outcome(batches: list, metrics: dict) -> dict:
    failures = [f for b in batches for f in b["failures"]]
    for f in failures[:10]:
        print("failed op:", json.dumps(f))
    return {
        "correct": not failures,
        "attempted": sum(b["attempted"] for b in batches),
        "failed": len(failures),
        "metrics": metrics,
    }


def measure(workload: str, seed: int, seconds: float, tiny: bool = False) -> dict:
    setups = [run_worker(workload, seed, 0, tiny, "--setup-only")["setup_s"]
              for _ in range(SETUP_SAMPLES)]
    batches = [run_worker(workload, seed, b, tiny)
               for b in range(batch_count(workload, seconds))]
    latencies_ms = [t * 1000 for b in batches for t in b["latencies_s"]]
    values = {
        "setup_s": statistics.median(setups + [b["setup_s"] for b in batches]),
        "wall_s": statistics.median(b["wall_s"] for b in batches),
        "op_p50_ms": percentile(latencies_ms, 0.5),
        "op_p90_ms": percentile(latencies_ms, 0.9),
        "peak_rss_mb": statistics.median(b["peak_rss_mb"] for b in batches),
    }
    return _outcome(batches, {k: {"value": values[k], "unit": u} for k, u in END_TO_END})


def trace(workload: str, seed: int, tiny: bool = False) -> dict:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{workload}-seed{seed}.jsonl"
    plain = run_worker(workload, seed, 0, tiny)
    traced = run_worker(workload, seed, 0, tiny, "--trace-out", str(path))
    aggregates = {(n, p): (c, s) for n, p, c, s in traced["aggregates"]}
    metrics = per_layer_metrics(aggregates, traced["counts"],
                                traced["wall_s"] / plain["wall_s"])
    return _outcome([plain, traced], metrics)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "garside" / "__init__.py").is_file():
        print(f"error: no garside sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    print("meta", json.dumps({**metadata(), **vars(args)}))
    try:
        if args.trace:
            result = trace(args.workload, args.seed)
        else:
            result = measure(args.workload, args.seed, args.seconds)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
