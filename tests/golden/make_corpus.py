"""Rewrite cli_corpus.json: fixed CLI invocations with their stdout and
exit code, replayed by tests/test_golden.py.

    PYTHONPATH=src python tests/golden/make_corpus.py

Each invocation runs in-process through ``garside.cli.main``; stderr is
not recorded.  The word pairs come from a fixed seed, so the invocation
list is the same on every run.  Rewrite the file only when a change of
output is intended, and name each changed entry in the change log.
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib
import random

from garside.cli import main

HERE = pathlib.Path(__file__).resolve().parent
CORPUS = HERE / "cli_corpus.json"
SEED = 20261018


def letters(structure: str, n: int) -> list:
    if structure == "artin":
        return [f"s{k}" for k in range(1, n)]
    return [f"a({t},{s})" for t in range(2, n + 1) for s in range(1, t)]


def random_letters(rng: random.Random, structure: str, n: int, length: int) -> list:
    return [rng.choice(letters(structure, n)) + rng.choice(["", "^-1"])
            for _ in range(length)]


def inverse_word(word: list) -> list:
    return [w[:-3] if w.endswith("^-1") else w + "^-1" for w in reversed(word)]


def conj_pairs(rng: random.Random) -> list:
    """40 pairs: per shape, 5 planted conjugates y = c^-1 x c (YES) and 5
    independent random words of the same length (mostly NO)."""
    cases = []
    for structure, n, length in (("artin", 4, 8), ("artin", 5, 8),
                                 ("bkl", 4, 6), ("bkl", 5, 6)):
        flags = ["--structure", structure, "--n", str(n)]
        for i in range(10):
            x = random_letters(rng, structure, n, length)
            if i < 5:
                c = random_letters(rng, structure, n, length // 2)
                y = inverse_word(c) + x + c
            else:
                y = random_letters(rng, structure, n, length)
            cases.append(flags + ["conj", " ".join(x), " ".join(y)])
    return cases


def invocations() -> list:
    rng = random.Random(SEED)
    cases = []
    shapes = (
        ("artin", 4, ["s1 s2 s3", "s3 s2 s1", "s1 s2^-1 s3 s2 s1^-1",
                      "D^2 s1^-1 s2", "D^-1 s1 s2 s3 s1", "[4,3,2,1] s1"]),
        ("artin", 5, ["s4 s3 s2 s1", "s1 s3 s2^-1 s4 s4", "D s2^-1 s3^-1 s1"]),
        ("bkl", 4, ["a(3,1) a(4,2)", "s1 s2 s3", "a(4,1)^-1 a(3,2) D^2",
                    "D^-3 a(2,1) a(4,3)^-1 a(4,2)"]),
        ("bkl", 5, ["a(5,1) a(3,2) a(4,1)", "a(5,3)^-1 a(2,1) D a(4,2)"]),
    )
    for structure, n, words in shapes:
        flags = ["--structure", structure, "--n", str(n)]
        for w in words:
            cases.append(flags + ["nf", w])
            cases.append(flags + ["traj", w])
        w = words[0]
        cases += [
            flags + ["nf", "--format", "json", w],
            flags + ["nf", "1"],
            flags + ["nf", "D^7"],
            flags + ["slide", w],
            flags + ["slide", "-k", "3", words[-1]],
            flags + ["slide", "--format", "json", "-k", "2", w],
            flags + ["traj", "--format", "json", words[1]],
            flags + ["rigid", w, "-k", "3"],
            flags + ["rigid", "--format", "json", words[-1], "-k", "2"],
        ]
        for w in words[:3]:
            cases.append(flags + ["sc", w])
            cases.append(flags + ["scg", w])
        cases += [
            flags + ["sc", "--format", "json", words[-1]],
            flags + ["scg", "--format", "json", words[-1]],
            flags + ["sc", "D^-2"],
        ]
    for structure, n, inf in (("artin", 3, 0), ("artin", 4, 0), ("artin", 4, 1),
                              ("bkl", 3, 0), ("bkl", 4, 0), ("bkl", 4, 2)):
        cases.append(["--structure", structure, "--n", str(n), "table", "--inf", str(inf)])
    cases += [
        ["table", "--n", "4", "--format", "json"],
        ["--structure", "bkl", "--n", "4", "table", "--format", "json", "--inf", "1"],
    ]
    cases += conj_pairs(rng)
    cases += [
        # hand-written pairs: D^k, negative letters, both structures
        ["conj", "s1 s2 s3", "s2 s1 s3"],
        ["conj", "D^2 s1", "D^2 s3"],
        ["conj", "D s1^-1", "D s3^-1"],
        ["conj", "D^-1 s1 s2", "D^-1 s2 s3"],
        ["--n", "3", "conj", "s1", "s1 s2"],
        ["conj", "s1 s3", "s2 s1"],
        ["--structure", "bkl", "conj", "a(3,1) a(4,2)^-1", "a(4,2)^-1 a(3,1)"],
        ["--structure", "bkl", "conj", "D a(2,1)", "D a(3,2)"],
        ["conj", "--format", "json", "s1 s2 s3", "s3 s2 s1"],
        ["conj", "--format", "json", "s1", "s1 s1"],
    ]
    cases += [
        # bad input: exit 2
        ["nf", "wat"],
        ["--n", "4", "nf", "s9"],
        ["--n", "1", "nf", "s1"],
        ["nf", "[1,2,2,4]"],
        ["--structure", "bkl", "nf", "[1,2,3,4]"],
        ["--structure", "bkl", "nf", "a(9,1)"],
        ["slide", "s3 s2 s1", "-k", "-1"],
        ["conj", "s1 s2", "s1 bogus"],
        ["frobnicate", "s1"],
        ["nf", "--structure", "garside", "s1"],
        # budgets: exit 3
        ["sc", "--max-vertices", "1", "s1 s2 s3"],
        ["scg", "--max-vertices", "1", "s1 s2 s3"],
        ["traj", "--max-trajectory", "1", "s3 s2 s1"],
        ["slide", "s3 s2 s1", "-k", "11", "--max-trajectory", "10"],
        ["rigid", "s3 s2 s1", "-k", "11", "--max-trajectory", "10"],
        ["table", "--n", "4", "--max-set-size", "10"],
        ["--n", "1001", "nf", "1"],
        ["--n", "4", "conj", "--max-vertices", "1", "s1 s2 s3", "s1 s2"],
        ["--n", "4", "conj", "--max-vertices", "1", "s1 s2 s3", "s1 s2 s3"],
        ["--n", "4", "conj", "--max-vertices", "1", "s1 s1 s3^-1", "s1 s1 s2^-1"],
    ]
    b6 = ["--structure", "bkl", "--n", "6"]
    cases += [
        # larger classes, whose vertices fall into tau-orbits of several elements
        b6 + ["scg", "--format", "json",
              "a(5,3)^-1 a(4,3)^-1 a(6,2) a(5,2) a(4,2)^-1 a(6,1) a(3,2) a(2,1)"],
        b6 + ["scg", "--format", "json",
              "a(5,3) a(5,1)^-1 a(6,4)^-1 a(5,2)^-1 a(6,1) a(5,1) a(5,3) a(5,1)"],
        ["--n", "6", "scg", "--format", "json", "s1 s1 s3^-1 s2 s2 s4 s2 s1 s3 s3^-1"],
        ["--n", "7", "sc", "s6 s5 s4 s3 s2 s1"],
        # planted YES: y = c^-1 x c
        b6 + ["conj",
              "a(6,1)^-1 a(3,2)^-1 a(6,4)^-1 a(6,5) a(6,2)^-1 a(6,4) a(5,1)^-1 a(6,4)^-1",
              "a(4,1)^-1 a(6,3)^-1 a(3,1) a(6,2)^-1 a(6,1)^-1 a(3,2)^-1 a(6,4)^-1 a(6,5) "
              "a(6,2)^-1 a(6,4) a(5,1)^-1 a(6,4)^-1 a(6,2) a(3,1)^-1 a(6,3) a(4,1)"],
        # NO with equal summit invariants (inf -1, canonical length 2); the
        # exponent sums differ (-2 and 0), so no element is slid
        b6 + ["conj",
              "a(6,4) a(4,3)^-1 a(5,2)^-1 a(6,3) a(6,3)^-1 a(4,3) a(4,2)^-1 a(6,1)^-1",
              "a(5,1) a(5,2) a(6,3)^-1 a(4,3) a(6,1)^-1 a(4,3)^-1 a(5,2)^-1 a(5,4)"],
    ]
    cases += [
        # NO with equal exponent sum and cycle type, from the summit
        # invariants, then from whole graphs
        ["conj", "s1", "s2 s2 s1^-1"],
        ["--structure", "bkl", "conj", "a(2,1) a(4,3) a(2,1)^-1", "a(3,1) a(3,2)^-1 a(3,1)"],
        ["--n", "4", "conj", "s1 s1 s3^-1", "s1 s1 s2^-1"],
        ["--structure", "bkl", "conj", "a(4,2) a(4,3)^-1 a(2,1)", "a(4,3) a(3,2)^-1 a(2,1)"],
    ]
    cases += [
        # YES at a Delta-conjugate of y's circuit, found before y's
        # representative: under a cap of one vertex, and at tau^5 of a
        # circuit state (3 vertices known instead of 7)
        ["--n", "4", "conj", "--max-vertices", "1", "s1 s3 s2^-1 s3^-1 s2^-1 s1^-1",
         "s2 s2 s1 s1 s3 s2^-1 s3^-1 s2^-1 s1^-1 s1^-1 s2^-1 s2^-1"],
        b6 + ["conj",
              "a(6,4)^-1 a(4,3) a(4,3)^-1 a(6,3)^-1 a(5,2) a(6,3) a(6,2)^-1 a(3,1)",
              "a(5,3)^-1 a(5,2)^-1 a(6,4) a(5,4)^-1 a(6,4)^-1 a(4,3) a(4,3)^-1 "
              "a(6,3)^-1 a(5,2) a(6,3) a(6,2)^-1 a(3,1) a(5,4) a(6,4)^-1 a(5,2) a(5,3)"],
    ]
    return cases


def run(argv: list) -> tuple:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def replay(entries: list) -> list:
    """The invocations among entries whose stdout or exit code differ from
    the recorded ones, as argument strings."""
    return [" ".join(e["argv"]) for e in entries
            if run(e["argv"]) != (e["exit"], e["stdout"])]


def write_corpus() -> None:
    entries = []
    for argv in invocations():
        code, stdout = run(argv)
        entries.append({"argv": argv, "exit": code, "stdout": stdout})
    CORPUS.write_text(json.dumps(entries, indent=1) + "\n")
    print(f"wrote {len(entries)} invocations to {CORPUS.name}")


if __name__ == "__main__":
    write_corpus()
