"""Seeded workload inputs for the garside benchmark, and the output oracle.

A workload is a list of CLI argv lists ("ops") handed to
``garside.cli.main``; the program sees nothing but these strings.  Inputs
are a pure function of (workload, seed, batch): the same triple always
gives the same ops.

Two workloads draw from fixed corpora built from a constant seed, and
``--seed`` picks and pairs corpus entries:

* ``conj-random``: the cost of ``conj x y`` is set almost entirely by the
  conjugacy class of ``x`` (its sliding circuits graph), and random
  16-letter braids spread that cost over two orders of magnitude.  Drawing
  ``x`` from a fixed class corpus keeps the cost profile the same on every
  seed, while ``y`` (a planted conjugate c^-1 x c or an independent word)
  is drawn fresh from the seed.
* ``nf-long``: ``traj`` outputs are checked against committed golden
  digests, which exist only for a fixed word corpus; the seed samples it.

The ``table-*`` workloads are the pinned statistics rows, always in the
same order: the first op of a fresh interpreter also fills the memo
caches, so an order chosen by the seed would move that cost between rows
and with it the per-op percentiles.  The seed does not change them.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import random
from dataclasses import dataclass, field

DATA = pathlib.Path(__file__).resolve().parent / "data"

WORKLOADS = ("table-artin", "table-bkl", "conj-random", "nf-long")

# corpus seeds are part of the benchmark definition; changing one
# changes every workload that draws from it
CONJ_CORPUS_SEED = 808_1430
NF_CORPUS_SEED = 808_1431
CONJ_CLASSES = 24  # corpus bases per structure; one conj op each per batch
NF_CORPUS = 200  # corpus words per structure
NF_PER_BATCH = 50  # traj ops per structure per batch

# seconds of one batch's timed phase, as measured when the benchmark was
# defined (medians over 30 runs on a 2-vCPU Xeon VM, Python 3.11.7).  A run
# of --seconds s times floor(s / BATCH_S) batches, at least one, so every
# run of a workload takes the same samples however fast the host is.
BATCH_S = {"table-artin": 18.8, "table-bkl": 9.1, "conj-random": 4.7, "nf-long": 5.7}

# (structure, n, word letters) per workload
CONJ_SHAPES = (("artin", 5, 16), ("bkl", 4, 12))
NF_SHAPES = (("artin", 8, 300), ("bkl", 8, 100))


@dataclass(frozen=True)
class Op:
    """One CLI call and what the oracle needs to judge its output."""

    argv: tuple
    kind: str  # "table", "conj" or "traj"
    expect: dict = field(default_factory=dict, compare=False, hash=False)


def random_word(rng: random.Random, structure: str, n: int, length: int) -> list:
    """Letters with random signs: sigma letters s<k> for the classical
    structure, band letters a(t,s) for the dual one."""
    toks = []
    for _ in range(length):
        if structure == "artin":
            tok = f"s{rng.randint(1, n - 1)}"
        else:
            s = rng.randint(1, n - 1)
            tok = f"a({rng.randint(s + 1, n)},{s})"
        if rng.random() < 0.5:
            tok += "^-1"
        toks.append(tok)
    return toks


def invert_word(toks: list) -> list:
    return [t[:-3] if t.endswith("^-1") else t + "^-1" for t in reversed(toks)]


def conj_corpus(structure: str, n: int, length: int) -> list:
    rng = random.Random(f"conj-corpus:{CONJ_CORPUS_SEED}:{structure}:{n}:{length}")
    return [random_word(rng, structure, n, length) for _ in range(CONJ_CLASSES)]


def nf_corpus(structure: str, n: int, length: int) -> list:
    rng = random.Random(f"nf-corpus:{NF_CORPUS_SEED}:{structure}:{n}:{length}")
    return [random_word(rng, structure, n, length) for _ in range(NF_CORPUS)]


def _load(name: str):
    return json.loads((DATA / name).read_text())


def table_ops(structure: str, n: int, infs) -> list:
    pinned = _load("table_rows.json")
    ops = []
    for i in infs:
        argv = ("table", "--structure", structure, "--n", str(n), "--inf", str(i))
        expect = {"csv": pinned["header"] + "\n" + pinned["rows"][f"{structure},{n},{i}"] + "\n"}
        ops.append(Op(argv, "table", expect))
    return ops


def conj_ops(rng: random.Random, per_structure: int) -> list:
    """Alternate the two structures; within each, alternate planted YES
    pairs (y = c^-1 x c, c of half the length of x) and independent pairs.
    The cost of a planted pair grows with the length of c, so that length
    is fixed."""
    lanes = []
    for structure, n, length in CONJ_SHAPES:
        bases = conj_corpus(structure, n, length)
        order = rng.sample(range(len(bases)), per_structure)
        lane = []
        for j, k in enumerate(order):
            x = bases[k]
            planted = j % 2 == 0
            if planted:
                c = random_word(rng, structure, n, length // 2)
                y = invert_word(c) + x + c
            else:
                y = random_word(rng, structure, n, length)
            xs, ys = " ".join(x), " ".join(y)
            lane.append(Op(
                ("--structure", structure, "--n", str(n), "conj", xs, ys),
                "conj",
                {"structure": structure, "n": n, "x": xs, "y": ys, "planted": planted},
            ))
        lanes.append(lane)
    return [op for pair in zip(*lanes) for op in pair]


def traj_argv(structure: str, n: int, word: list) -> tuple:
    return ("--structure", structure, "--n", str(n), "traj", " ".join(word))


def traj_ops(rng: random.Random, per_structure: int) -> list:
    golden = _load("traj_golden.json")
    lanes = []
    for structure, n, length in NF_SHAPES:
        words = nf_corpus(structure, n, length)
        lanes.append([
            Op(traj_argv(structure, n, words[k]), "traj", {"digest": golden[structure][k]})
            for k in rng.sample(range(len(words)), per_structure)
        ])
    return [op for pair in zip(*lanes) for op in pair]


def build_ops(workload: str, seed: int, batch: int, tiny: bool = False) -> list:
    """The ops of one batch.  ``tiny`` shrinks every workload to a few
    seconds for the benchmark's self-tests."""
    rng = random.Random(f"{workload}:{seed}:{batch}")
    if workload == "table-artin":
        return table_ops("artin", 4 if tiny else 6, [0])
    if workload == "table-bkl":
        return table_ops("bkl", 6, [2] if tiny else [0, 1, 2])
    if workload == "conj-random":
        return conj_ops(rng, 2 if tiny else CONJ_CLASSES)
    if workload == "nf-long":
        return traj_ops(rng, 2 if tiny else NF_PER_BATCH)
    raise ValueError(f"unknown workload {workload!r}")


def structures(workload: str, tiny: bool = False) -> list:
    """(structure, n) pairs a workload runs on; set-up builds these."""
    if workload == "table-artin":
        return [("artin", 4 if tiny else 6)]
    if workload == "table-bkl":
        return [("bkl", 6)]
    if workload == "conj-random":
        return [(s, n) for s, n, _ in CONJ_SHAPES]
    if workload == "nf-long":
        return [(s, n) for s, n, _ in NF_SHAPES]
    raise ValueError(f"unknown workload {workload!r}")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def check(op: Op, rc, out: str) -> str | None:
    """None if the output of op is right, else the reason it is wrong.

    table: the CSV equals the pinned row.  traj: the output matches its
    golden digest.  conj: every YES witness is re-verified with
    ``garside.core.conjugate`` on freshly parsed inputs; planted pairs must
    answer YES, and exit code 1 is accepted only with the output NO.
    """
    if op.kind == "table":
        if rc != 0:
            return f"exit code {rc}"
        return None if out == op.expect["csv"] else "table row differs from the pinned row"
    if op.kind == "traj":
        if rc != 0:
            return f"exit code {rc}"
        return None if digest(out) == op.expect["digest"] else "trajectory differs from golden"
    if op.kind == "conj":
        e = op.expect
        if rc == 1:
            if out != "NO\n":
                return "exit code 1 without NO"
            return "planted pair answered NO" if e["planted"] else None
        if rc != 0 or not out.startswith("YES "):
            return f"exit code {rc} with output {out[:40]!r}"
        return _verify_witness(e, out[4:])
    raise ValueError(f"unknown op kind {op.kind!r}")


def _verify_witness(e: dict, text: str) -> str | None:
    from garside.artin import artin_structure
    from garside.bkl import bkl_structure
    from garside.core import conjugate
    from garside.words import parse_word

    st = (artin_structure if e["structure"] == "artin" else bkl_structure)(e["n"])
    # render_element joins normal-form factors with " . "
    letters = " ".join(t for t in text.split() if t != ".")
    try:
        w = parse_word(st, letters)
    except ValueError as exc:  # WordError, or an atom out of range
        return f"witness does not parse: {exc}"
    if conjugate(parse_word(st, e["x"]), w) != parse_word(st, e["y"]):
        return "witness does not conjugate x to y"
    return None
