"""One batch of a workload in a fresh interpreter.

Set-up imports garside from the checkout's ``src/``, builds the
workload's structures and enumerates their simples.  The timed phase then
sends each op to ``garside.cli.main`` in turn (closed loop, one client) and
times it.  Outputs are checked after the timed phase.  The result is one
JSON line on stdout.

    python3 perfbench/worker.py --workload nf-long --seed 1 --batch 0
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import pathlib
import resource
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _setup(workload: str, tiny: bool):
    sys.path.insert(0, str(SRC))
    import garside.cli
    from garside.artin import artin_structure
    from garside.bkl import bkl_structure
    from workloads import structures

    if not pathlib.Path(garside.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"garside imported from {garside.__file__}, not from {SRC}")
    for structure, n in structures(workload, tiny):
        (artin_structure if structure == "artin" else bkl_structure)(n).simples()
    return garside.cli


def run_ops(cli, ops, tracer=None):
    """Time each op; returns (latencies, [(exit code, stdout)], wall)."""
    latencies, outputs = [], []
    start = time.perf_counter()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i + 1
        out = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                rc = cli.main(list(op.argv))
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # a crash is a failed op, not a failed run
            rc = f"crash: {exc!r}"
        latencies.append(time.perf_counter() - t0)
        outputs.append((rc, out.getvalue()))
    return latencies, outputs, time.perf_counter() - start


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--batch", type=int, default=0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace-out", help="trace this batch and write its spans here")
    args = ap.parse_args(argv)

    cli = _setup(args.workload, args.tiny)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    from tracer import Tracer
    from workloads import build_ops, check

    ops = build_ops(args.workload, args.seed, args.batch, args.tiny)
    tracer = None
    if args.trace_out:
        tracer = Tracer()
        tracer.install()
    try:
        latencies, outputs, wall = run_ops(cli, ops, tracer)
    finally:
        if tracer is not None:
            tracer.restore()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failures = []
    for op, (rc, out) in zip(ops, outputs):
        reason = check(op, rc, out)
        if reason is not None:
            failures.append({"argv": list(op.argv), "reason": reason})
    result = {
        "ready": ready,
        "wall_s": wall,
        "latencies_s": latencies,
        "attempted": len(ops),
        "failures": failures,
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer is not None:
        result["aggregates"] = [[n, p, c, s] for (n, p), (c, s) in tracer.aggregates().items()]
        result["counts"] = tracer.counts
        from run import metadata

        tracer.dump(args.trace_out, {**metadata(), "workload": args.workload, "seed": args.seed,
                                     "batch": args.batch, "wall_s": wall})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
