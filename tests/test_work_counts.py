"""Exact work counts of pinned commands, taken in process by patching.

Counts do not depend on the host, so a change in them is a change in the
algorithm.  A change that moves a count updates it here and gives the old
and new value in CHANGES.md.
"""

import importlib
import sys
from pathlib import Path

import pytest

import garside.circuits
import garside.cli
from garside.artin import ArtinStructure, artin_structure
from garside.bkl import BKLStructure, bkl_structure
from garside.cli import main
from garside.words import parse_word

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_table_n6_work_counts(monkeypatch, capsys):
    """`table --n 6 --inf 0` with a cold join cache: the conjugations of
    the super summit set walks (the table's only conjugations in
    `circuits`), the sliding steps of the circuit membership tests, and the
    insertion passes of the classical join."""
    counts = dict.fromkeys(("sss_conjugations", "membership_steps", "join_passes"), 0)
    conjugate_simple = garside.circuits.conjugate_simple
    slide_until = garside.circuits._slide_until
    join_pass = ArtinStructure._join_pass

    def conjugate(x, s):
        counts["sss_conjugations"] += 1
        return conjugate_simple(x, s)

    def membership_walk(y, known, max_states):
        index, prefixes, last = slide_until(y, known, max_states)
        counts["membership_steps"] += len(prefixes)
        return index, prefixes, last

    def insertion_pass(self, a, b):
        counts["join_passes"] += 1
        return join_pass(self, a, b)

    monkeypatch.setattr(garside.circuits, "conjugate_simple", conjugate)
    monkeypatch.setattr(garside.circuits, "_slide_until", membership_walk)
    monkeypatch.setattr(ArtinStructure, "_join_pass", insertion_pass)
    monkeypatch.setattr(artin_structure(6), "_join_cache", {})
    assert main(["--n", "6", "--format", "csv", "table", "--inf", "0"]) == 0
    assert capsys.readouterr().out.splitlines()[1] == (
        "artin,6,0,89,38,22,15,8.06742,4.40449,2.14131,16.2646,6.38162,3.78721")
    assert counts == {"sss_conjugations": 917, "membership_steps": 503, "join_passes": 2503}


def test_table_bkl_n6_work_counts(monkeypatch, capsys):
    """`--structure bkl --n 6 table --inf 0` on a fresh structure, so that
    every memo is cold: the joins and left quotients of dual simples, most
    of them in the rho_a fixpoints, and one quotient per simple for its
    complement."""
    counts = dict.fromkeys(("joins", "quotients"), 0)
    join_simple, lquot = BKLStructure.join_simple, BKLStructure.lquot

    def join(self, a, b):
        counts["joins"] += 1
        return join_simple(self, a, b)

    def quotient(self, s, b):
        counts["quotients"] += 1
        return lquot(self, s, b)

    monkeypatch.setattr(BKLStructure, "join_simple", join)
    monkeypatch.setattr(BKLStructure, "lquot", quotient)
    st = BKLStructure(6)
    monkeypatch.setattr(garside.cli, "bkl_structure", lambda n: st)
    assert main(["--structure", "bkl", "--n", "6", "--format", "csv", "table", "--inf", "0"]) == 0
    assert capsys.readouterr().out.splitlines()[1] == (
        "bkl,6,0,9,30,30,1,14.4444,14.4444,1,21.2,21.2,1")
    assert counts == {"joins": 1572, "quotients": 1086}


def _workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "workloads", raising=False)
    return importlib.import_module("workloads")


@pytest.mark.parametrize("cls, structure, name, expected", [
    (ArtinStructure, artin_structure, "artin", 596),
    (BKLStructure, bkl_structure, "bkl", 276),
], ids=["artin", "bkl"])
def test_normal_form_meet_counts_on_an_nf_long_word(monkeypatch, cls, structure, name, expected):
    """The meets that the normal form of the first `nf-long` corpus word
    takes: the classical B_8 word of 300 letters, the dual B_8 word of 100."""
    workloads = _workloads(monkeypatch)
    n, length = dict((s, (n, k)) for s, n, k in workloads.NF_SHAPES)[name]
    word = workloads.nf_corpus(name, n, length)[0]
    count = 0
    meet_simple = cls.meet_simple

    def counted(self, a, b):
        nonlocal count
        count += 1
        return meet_simple(self, a, b)

    monkeypatch.setattr(cls, "meet_simple", counted)
    parse_word(structure(n), " ".join(word))
    assert count == expected


def _arrow_search_counts(monkeypatch, capsys, argvs):
    """The arrow searches that `sc` on each argv runs, and the simples they
    test: the calls of the membership test, less the one check of the
    vertex itself per search."""
    counts = {"searches": 0, "tested": 0}
    search = garside.circuits.indecomposable_conjugators

    def counted(y, member, budgets):
        counts["searches"] += 1
        counts["tested"] -= 1

        def tested(z):
            counts["tested"] += 1
            return member(z)

        return search(y, tested, budgets)

    monkeypatch.setattr(garside.circuits, "indecomposable_conjugators", counted)
    for argv in argvs:
        assert main([*argv[:-1], "sc", argv[-1]]) == 0
    capsys.readouterr()
    return counts["searches"], counts["tested"]


def _seed(n):
    return ["--n", str(n), " ".join(f"s{k}" for k in range(n - 1, 0, -1))]


@pytest.mark.parametrize("argvs, expected", [
    ([_seed(6)], (9, 18)),
    ([_seed(7)], (15, 32)),
    ([_seed(8)], (35, 82)),
    ([["--structure", "bkl", "--n", "8", "a(3,1) a(5,4) a(8,2)"]], (42, 294)),
], ids=["seed6", "seed7", "seed8", "bkl8"])
def test_arrow_search_work_counts(monkeypatch, capsys, argvs, expected):
    """`sc` on the n-cycle seeds and on a dual B_8 class: one arrow search
    per tau-orbit of vertices, and the simples each tests."""
    assert _arrow_search_counts(monkeypatch, capsys, argvs) == expected


@pytest.mark.parametrize("argv, expected", [
    (_seed(7), 32),
    (_seed(8), 82),
    (["--structure", "bkl", "--n", "8", "a(3,1) a(5,4) a(8,2)"], 294),
], ids=["seed7", "seed8", "bkl8"])
def test_sc_conjugation_counts(monkeypatch, capsys, argv, expected):
    """The conjugations in `circuits` that `sc` takes: one per simple the
    arrow searches test, as each arrow keeps the target its membership test
    computed and the other vertices of a tau-orbit twist them."""
    count = 0
    conjugate_simple = garside.circuits.conjugate_simple

    def counted(x, s):
        nonlocal count
        count += 1
        return conjugate_simple(x, s)

    monkeypatch.setattr(garside.circuits, "conjugate_simple", counted)
    assert main([*argv[:-1], "sc", argv[-1]]) == 0
    capsys.readouterr()
    assert count == expected


def test_arrow_search_work_counts_on_the_conj_corpus(monkeypatch, capsys):
    """`sc` on each class of the `conj-random` benchmark corpus: its 24
    classical B_5 and 24 dual B_4 words, whole graphs."""
    workloads = _workloads(monkeypatch)
    got = {}
    for structure, n, length in workloads.CONJ_SHAPES:
        got[structure] = _arrow_search_counts(monkeypatch, capsys, [
            ["--structure", structure, "--n", str(n), " ".join(w)]
            for w in workloads.conj_corpus(structure, n, length)])
    assert got == {"artin": (189, 1931), "bkl": (137, 402)}


def test_conj_twist_counts(monkeypatch, capsys):
    """The targets that `conj` on the `conj-random` batches 0-4 of seed 1
    twists: a tau-orbit member takes the twisted arrow list of a searched
    orbit only when the walk pops it, so a walk that stops at a target
    twists nothing for the members it never reached."""
    workloads = _workloads(monkeypatch)
    count = 0
    twist = garside.circuits._twist

    def counted(z, k):
        nonlocal count
        count += 1
        return twist(z, k)

    monkeypatch.setattr(garside.circuits, "_twist", counted)
    for batch in range(5):
        for op in workloads.build_ops("conj-random", 1, batch):
            rc = main(list(op.argv))
            assert workloads.check(op, rc, capsys.readouterr().out) is None
    assert count == 18
