"""Acceptance checklist.

Each criterion is one test that prints a single pass/fail line (visible
with -s, or in the captured output on failure) and enforces its stated
time budget.
"""

import pathlib
import random
import time

from garside.artin import artin_structure
from garside.bkl import bkl_structure
from garside.circuits import compute_sss
from garside.core import (
    conjugate,
    conjugate_simple,
    from_simple,
    identity_element,
    inverse,
    left_normal_form,
    multiply,
)
from garside.experiments import enumerate_length_one_classes, row_to_csv, statistics_row
from garside.sliding import is_rigid, preferred_prefix

from conftest import random_element, random_word, structures_for_properties
from oracles import (
    cyclic_sliding,
    minimal_sc_conjugator,
    prefix_leq,
    prefix_product,
    sliding_circuit_set,
    transport,
    word_to_simple,
)


def el(st, ks):
    return left_normal_form(st, [(st.atom(k), 1) for k in ks])


def delta_seed(st):
    return el(st, list(range(st.n - 1, 0, -1)))


def _run(num, desc, body):
    start = time.monotonic()
    try:
        body()
    except BaseException:
        print(f"criterion {num} ({desc}): FAIL")
        raise
    print(f"criterion {num} ({desc}): PASS [{time.monotonic() - start:.2f}s]")


def test_criterion_1_benchmark_sets_b4():
    def body():
        start = time.monotonic()
        st = artin_structure(4)
        x = el(st, [1, 2, 3])
        assert compute_sss(x) == frozenset(
            {el(st, [1, 2, 3]), el(st, [3, 2, 1]),
             el(st, [2, 1, 3]), el(st, [1, 3, 2])}
        )
        assert sliding_circuit_set(x) == frozenset(
            {el(st, [2, 1, 3]), el(st, [1, 3, 2])}
        )
        assert time.monotonic() - start < 1.0

    _run(1, "B4 benchmark summit and circuit sets", body)


def test_criterion_2_periodic_seed_counts():
    def body():
        for n in range(4, 11):
            st = artin_structure(n)
            d = delta_seed(st)
            start = time.monotonic()
            assert len(compute_sss(d)) == 2 ** (n - 2)
            assert len(sliding_circuit_set(d)) == 2 ** (n - 2) - 2
            if n == 8:
                assert time.monotonic() - start < 300.0

    _run(2, "summit and circuit counts for the n-cycle seed, n=4..10", body)


_CLASSICAL_ROWS = {
    4: "artin,4,0,9,4,4,2,2.44444,2.22222,1.11111,3.09091,2.72727,1.18182",
    5: "artin,5,0,26,12,8,6,4.53846,3.30769,1.42308,6.57627,4.0678,1.87571",
    6: "artin,6,0,89,38,22,15,8.06742,4.40449,2.14131,16.2646,6.38162,3.78721",
    7: "artin,7,0,305,142,58,60,16.518,5.91475,3.52468,48.7674,10.3355,8.52684",
}


def test_criterion_3_classical_statistics_rows():
    def body():
        for n in (4, 5, 6):
            st = artin_structure(n)
            row = statistics_row("artin", n, 0, enumerate_length_one_classes(st))
            assert row_to_csv(row) == _CLASSICAL_ROWS[n]

    _run(3, "classical statistics rows n=4,5,6", body)


def test_criterion_3s_classical_statistics_row_n7():
    def body():
        start = time.monotonic()
        st = artin_structure(7)
        row = statistics_row("artin", 7, 0, enumerate_length_one_classes(st))
        assert row_to_csv(row) == _CLASSICAL_ROWS[7]
        assert time.monotonic() - start < 3600.0

    _run("3s", "classical statistics row n=7", body)


_DUAL_ROWS = {
    (6, 0): "bkl,6,0,9,30,30,1,14.4444,14.4444,1,21.2,21.2,1",
    (6, 1): "bkl,6,1,18,24,18,4,7.22222,5.22222,1.44444,11.5538,6.84615,1.92308",
    (6, 2): "bkl,6,2,16,24,18,4,8.125,6.25,1.3125,13.3538,8.36923,1.83077",
    (7, 0): "bkl,7,0,13,105,105,1,32.8462,32.8462,1,54.5082,54.5082,1",
    (7, 1): "bkl,7,1,31,63,28,9,13.7742,9.03226,1.64516,22.8361,10.4426,2.70492",
    (7, 2): "bkl,7,2,29,42,28,5,14.7241,10.3793,1.47701,23.2951,13.4262,2.02186",
    (7, 3): "bkl,7,3,26,42,42,1,16.4231,16.4231,1,26.9672,26.9672,1",
    (9, 1): "bkl,9,1,146,225,72,25,33.2877,15.1027,2.50742,82.4222,20.9389,5.56728",
}


def test_criterion_4_dual_statistics_rows():
    def body():
        for (n, i), expected in sorted(_DUAL_ROWS.items()):
            st = bkl_structure(n)
            classes = enumerate_length_one_classes(st, i)
            row = statistics_row("bkl", n, i, classes)
            assert row_to_csv(row) == expected
            # at infimum 0, and at the half turn for odd n, the whole super
            # summit set lies on sliding circuits
            if i == 0 or (n % 2 == 1 and 2 * i == n - 1):
                for c in classes:
                    assert c.sss_size == c.sc_size

    _run(4, "dual statistics rows n=6 (i=0..2), n=7 (i=0..3) and n=9 (i=1)", body)


def test_criterion_5_rigidity_walkthrough():
    def body():
        start = time.monotonic()
        st = artin_structure(4)
        x = el(st, [3, 2, 1])
        assert preferred_prefix(x) == word_to_simple(st, [3, 2])
        sx = cyclic_sliding(x)
        assert sx == el(st, [1, 3, 2])
        assert cyclic_sliding(sx) == sx
        y = conjugate_simple(x, st.atom(3))
        assert y == el(st, [2, 1, 3])
        assert cyclic_sliding(y) == y
        assert not is_rigid(y)
        assert minimal_sc_conjugator(x) == el(st, [3])
        chain = [prefix_product(x, i) for i in range(11)]
        for a, b in zip(chain, chain[1:]):
            assert prefix_leq(a, b) and a != b
        assert time.monotonic() - start < 1.0

    _run(5, "rigidity walkthrough for s3 s2 s1 in B4", body)


def test_criterion_6_property_case_counts():
    def body():
        structures = structures_for_properties()

        # family 1: normal form well-formedness and group laws
        rng = random.Random(20260826)
        cases = 0
        for st in structures:
            for _ in range(150):
                word = random_word(st, rng)
                x = left_normal_form(st, word)
                for f in x.factors:
                    assert f != st.trivial and f != st.delta
                for a, b in zip(x.factors, x.factors[1:]):
                    assert st.meet_simple(st.complement(a), b) == st.trivial
                assert multiply(x, inverse(x)) == identity_element(st)
                cases += 1
        assert cases >= 1000

        # family 2: the preferred prefix realizes cyclic sliding and is
        # inversion symmetric
        rng = random.Random(20260827)
        cases = 0
        for st in structures:
            for _ in range(150):
                x = random_element(st, rng)
                p = preferred_prefix(x)
                assert cyclic_sliding(x) == conjugate(x, from_simple(st, p))
                assert preferred_prefix(inverse(x)) == p
                cases += 1
        assert cases >= 1000

        # family 3: transport respects products
        rng = random.Random(20260828)
        cases = 0
        for st in structures:
            for _ in range(150):
                x = random_element(st, rng)
                a = random_element(st, rng, length=rng.randint(0, 3))
                b = random_element(st, rng, length=rng.randint(0, 3))
                ab1 = transport(multiply(a, b), x)
                assert ab1 == multiply(transport(a, x),
                                       transport(b, conjugate(x, a)))
                cases += 1
        assert cases >= 1000

    _run(6, "randomized property families, 1000+ cases each", body)


def test_criterion_7_scope_documented():
    def body():
        readme = pathlib.Path(__file__).resolve().parent.parent / "README.md"
        text = readme.read_text()
        assert "400344" in text
        assert "126498" in text
        assert "8 or more strands" in text

    _run(7, "out-of-scope data points documented in the README", body)
