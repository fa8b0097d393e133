"""Exhaustive statistics over classes of summit canonical length 1."""

import gc
import json
import tracemalloc

import pytest

import garside.experiments
from garside.artin import ArtinStructure, artin_structure
from garside.bkl import BKLStructure, bkl_structure
from garside.circuits import compute_sss
from garside.cli import main
from garside.core import VerificationError, delta_power, from_simple, multiply
from garside.experiments import (
    CSV_HEADER,
    ClassStatistics,
    emit_csv,
    emit_json,
    enumerate_length_one_classes,
    row_to_csv,
    statistics_row,
)
from garside.sliding import slide_to_circuit

from oracles import in_sc, sliding_circuit_set


def test_class_partition_b4():
    """The 9 classes of length-1 positive braids in B4 partition the 22
    candidate simples by super summit sets."""
    st = artin_structure(4)
    classes = enumerate_length_one_classes(st)
    assert len(classes) == 9
    total = sum(c.sss_size for c in classes)
    # every simple except 1 and Delta lies in exactly one class
    assert total == len(st.simples()) - 2
    for c in classes:
        assert in_sc(c.representative)
        assert c.sc_size <= c.sss_size
        assert c.sss_size == len(compute_sss(c.representative))
        assert c.sc_size == len(sliding_circuit_set(c.representative))
    reps = [c.representative for c in classes]
    assert len(set(reps)) == len(reps)
    assert reps == sorted(reps, key=lambda v: v.sort_key())


def test_structures_keep_no_copy_of_the_simples():
    """The table reads the simples once; the structure must not hold the
    40,320 permutations of B_8 or the 4,862 partitions of dual B_9 after."""
    for st in (ArtinStructure(8), BKLStructure(9)):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            assert len(st.simples()) == st.simple_count()
            gc.collect()  # also empties the interpreter's free lists of tuples
            after = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert after - before < 64 * 1024, (st.name, after - before)
        first, second = st.simples(), st.simples()
        assert first == second
        assert list(first) == sorted(first)
        assert len(first) == st.simple_count()


def test_classes_cover_exactly_the_length_one_candidates():
    """Oracle for marking classes by bare simples, off the pinned rows: the
    summit sets hold exactly the candidates Delta^i s whose circuit
    representative has infimum i and canonical length 1."""
    cases = [(artin_structure(n), i) for n in (4, 5) for i in (-1, 1)]
    cases += [(bkl_structure(n), i) for n in (4, 5) for i in (1, 2)]
    for st, i in cases:
        candidates = 0
        for s in st.simples():
            if s == st.trivial or s == st.delta:
                continue
            rep, _ = slide_to_circuit(multiply(delta_power(st, i), from_simple(st, s)))
            candidates += rep.inf == i and rep.canonical_length == 1
        classes = enumerate_length_one_classes(st, i)
        assert sum(c.sss_size for c in classes) == candidates, (st.name, i)


def test_sc_read_off_sss_matches_graph():
    """Every class of the n=4,5 rows with i=0,1: the table's SC, read off
    the summit set, equals the sliding circuits graph's vertex set."""
    for st in [artin_structure(4), artin_structure(5),
               bkl_structure(4), bkl_structure(5)]:
        for i in (0, 1):
            for c in enumerate_length_one_classes(st, i):
                sc = sliding_circuit_set(c.representative)
                assert c.sc_size == len(sc)
                assert c.representative == min(sc, key=lambda v: v.sort_key())


def test_row_b4_artin_exact():
    st = artin_structure(4)
    classes = enumerate_length_one_classes(st)
    row = statistics_row("artin", 4, 0, classes)
    assert row_to_csv(row) == (
        "artin,4,0,9,4,4,2,2.44444,2.22222,1.11111,3.09091,2.72727,1.18182"
    )
    # the element means unpacked: 68 and 60 summit elements over 22
    assert sum(c.sss_size * c.sss_size for c in classes) == 68
    assert sum(c.sss_size * c.sc_size for c in classes) == 60
    assert sum(c.sss_size for c in classes) == 22
    assert abs(row.emean_sss - 68 / 22) < 1e-12


def test_row_b5_artin_exact():
    st = artin_structure(5)
    row = statistics_row("artin", 5, 0, enumerate_length_one_classes(st))
    assert row_to_csv(row) == (
        "artin,5,0,26,12,8,6,4.53846,3.30769,1.42308,6.57627,4.0678,1.87571"
    )


def test_row_bkl6_inf0_exact():
    st = bkl_structure(6)
    row = statistics_row("bkl", 6, 0, enumerate_length_one_classes(st, 0))
    assert row_to_csv(row) == (
        "bkl,6,0,9,30,30,1,14.4444,14.4444,1,21.2,21.2,1"
    )
    # at infimum 0 every dual class has its whole summit set on circuits
    for c in enumerate_length_one_classes(st, 0):
        assert c.sss_size == c.sc_size


def test_nonzero_inf_row_bkl6():
    st = bkl_structure(6)
    classes = enumerate_length_one_classes(st, 1)
    row = statistics_row("bkl", 6, 1, classes)
    assert row_to_csv(row) == (
        "bkl,6,1,18,24,18,4,7.22222,5.22222,1.44444,11.5538,6.84615,1.92308"
    )


def test_classes_skip_wrong_invariants():
    # no Delta s collapses: at infimum 0 and 1 alike the summit sets hold
    # all 22 candidates of B_4, each at inf i and canonical length 1
    st = artin_structure(4)
    at0 = enumerate_length_one_classes(st, 0)
    at1 = enumerate_length_one_classes(st, 1)
    assert sum(c.sss_size for c in at0) == sum(c.sss_size for c in at1) == 22
    for c in at1:
        assert c.representative.inf == 1
        assert c.representative.canonical_length == 1


def test_a_candidate_that_leaves_length_one_is_a_program_fault(monkeypatch, capsys):
    """Every candidate Delta^i s has summit inf i and canonical length 1
    (see enumerate_length_one_classes), so a circuit element of length 2
    stops the table with VerificationError, exit 4, rather than dropping
    its class from the row."""
    st = artin_structure(4)
    s1 = from_simple(st, st.atoms[0])
    monkeypatch.setattr(garside.experiments, "slide_to_circuit",
                        lambda x, max_states: (multiply(s1, s1), None))
    with pytest.raises(VerificationError, match="inf 0, length 2"):
        enumerate_length_one_classes(st, 0)
    assert main(["--n", "4", "table"]) == 4
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("internal check failed")


def test_emit_csv_shapes():
    st = artin_structure(4)
    row = statistics_row("artin", 4, 0, enumerate_length_one_classes(st))
    text = emit_csv([row])
    lines = text.strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 2
    assert emit_csv([]).strip() == CSV_HEADER


def test_emit_json_shapes():
    st = artin_structure(4)
    row = statistics_row("artin", 4, 0, enumerate_length_one_classes(st))
    data = json.loads(emit_json([row]))
    assert len(data) == 1
    assert data[0]["classes"] == 9
    assert data[0]["max_sss"] == 4
    assert abs(data[0]["emean_sss"] - 3.09091) < 1e-5


def test_statistics_row_refuses_an_empty_class_list():
    with pytest.raises(ValueError, match="empty class list"):
        statistics_row("artin", 2, 0, enumerate_length_one_classes(artin_structure(2)))


def test_ratio_property():
    c = ClassStatistics(None, 6, 3)
    assert c.ratio == 2.0
