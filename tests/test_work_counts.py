"""Exact work counts of one pinned command, taken in process by patching.

Counts do not depend on the host, so a change in them is a change in the
algorithm.  A change that moves a count updates it here and gives the old
and new value in CHANGES.md.
"""

import garside.circuits
from garside.artin import ArtinStructure, artin_structure
from garside.cli import main


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
    assert counts == {"sss_conjugations": 917, "membership_steps": 503, "join_passes": 3105}
