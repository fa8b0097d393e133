"""Regenerate data/traj_golden.json: the digest of ``traj`` output for
every word of the nf-long corpus, from the garside sources of this
checkout.  Run it only at a commit whose output is known to be right:

    python3 perfbench/make_golden.py
"""

from __future__ import annotations

import json
import sys

from worker import SRC, run_ops
from workloads import DATA, NF_SHAPES, Op, digest, nf_corpus, traj_argv


def main() -> None:
    sys.path.insert(0, str(SRC))
    import garside.cli

    golden = {}
    for structure, n, length in NF_SHAPES:
        ops = [Op(traj_argv(structure, n, w), "traj") for w in nf_corpus(structure, n, length)]
        _, outputs, _ = run_ops(garside.cli, ops)
        if any(rc != 0 for rc, _ in outputs):
            raise SystemExit("a traj op failed; no golden written")
        golden[structure] = [digest(out) for _, out in outputs]
    (DATA / "traj_golden.json").write_text(json.dumps(golden, indent=0) + "\n")


if __name__ == "__main__":
    main()
