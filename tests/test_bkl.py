"""The non-crossing-partition descriptor for the dual structure."""

import random
from math import comb

import pytest

from garside.artin import artin_structure
from garside.bkl import (
    BKLStructure,
    _band_index,
    _canonical_labels,
    bkl_structure,
    blocks_of,
    is_noncrossing,
)
from garside.cli import main
from garside.core import (
    VerificationError,
    delta_power,
    from_simple,
    left_normal_form,
    power,
)
from garside.words import band_to_sigma_word

from oracles import filtered_noncrossing_partitions, meet, prefix_leq, suffix_leq


def catalan(n):
    return comb(2 * n, n) // (n + 1)


def _crossing_pair(labels):
    """Labels of two crossing blocks, or None."""
    last: dict = {}
    arcs = []
    for i, lab in enumerate(labels):
        if lab in last:
            arcs.append((last[lab], i))
        last[lab] = i
    for i, j in arcs:
        for k, m in arcs:
            if i < k < j < m:
                return labels[i], labels[k]
    return None


def merge_and_uncross_join(a, b):
    """Join oracle: the finest non-crossing partition coarser than both.
    Join the blocks of a that b connects, then merge crossing blocks until
    none cross."""
    labels = list(a)

    def merge(keep, drop):
        for i, lab in enumerate(labels):
            if lab == drop:
                labels[i] = keep

    first: dict = {}
    for i, lab in enumerate(b):
        merge(labels[first.setdefault(lab, i)], labels[i])
    pair = _crossing_pair(labels)
    while pair is not None:
        merge(*pair)
        pair = _crossing_pair(labels)
    seen: dict = {}
    return tuple(seen.setdefault(lab, len(seen)) for lab in labels)


def test_descriptor_basics():
    st = bkl_structure(4)
    assert len(st.atoms) == 6
    assert st.norm_of_delta == 3
    assert st.delta == (0, 0, 0, 0)
    assert st.atom(2, 1) == (0, 0, 1, 2)
    with pytest.raises(ValueError):
        BKLStructure(1)
    with pytest.raises(ValueError):
        st.atom(1, 2)


def test_simple_counts_are_catalan():
    for n in (2, 3, 4, 5, 6):
        assert len(bkl_structure(n).simples()) == catalan(n)


def test_direct_enumeration_matches_the_filter_of_all_set_partitions():
    for n in range(2, 10):
        assert BKLStructure(n).simples() == filtered_noncrossing_partitions(n)


def test_noncrossing_filter():
    assert is_noncrossing((0, 1, 0, 1)) is False  # {1,3},{2,4} crosses
    assert is_noncrossing((0, 1, 1, 0)) is True   # {1,4},{2,3} nests


def test_band_generator_is_conjugated_sigma():
    # a_{t,s} = (sigma_{t-1} ... sigma_{s+1}) sigma_s (inverses back),
    # checked inside the dual structure via the sigma embedding
    for n in (3, 4, 5):
        st = bkl_structure(n)
        for t in range(2, n + 1):
            for s in range(1, t):
                word = [(st.atom(k + 1, k), e) for k, e in band_to_sigma_word(t, s)]
                assert left_normal_form(st, word) == from_simple(st, st.atom(t, s))


def test_sigma_word_gives_delta():
    st = bkl_structure(3)
    x = left_normal_form(st, [(st.atom(3, 2), 1), (st.atom(2, 1), 1)])
    assert x == delta_power(st, 1)


def test_delta_nth_power_is_full_twist():
    for n in (3, 4, 5, 6):
        st = bkl_structure(n)
        assert power(delta_power(st, 1), n) == delta_power(st, n)


def test_kreweras_complement_properties():
    for n in (3, 4, 5, 6):
        st = bkl_structure(n)
        for s in st.simples():
            assert st.prod(s, st.complement(s)) == st.delta
            assert st.complement(st.complement(s)) == st.tau(s)
            assert st.norm(s) + st.norm(st.complement(s)) == st.norm_of_delta
            assert st.complement_inv(st.complement(s)) == s
            assert st.tau_pow(s, st.tau_order) == s


def test_tau_is_delta_conjugation():
    from garside.core import conjugate

    for n in (3, 4, 5):
        st = bkl_structure(n)
        d = delta_power(st, 1)
        for s in st.simples():
            assert from_simple(st, st.tau(s)) == conjugate(from_simple(st, s), d)


def test_refinement_is_the_prefix_order():
    # refinement of partitions must agree with positivity of a^-1 b
    for n in (3, 4):
        st = bkl_structure(n)
        for a in st.simples():
            ea = from_simple(st, a)
            for b in st.simples():
                assert st.leq(a, b) == prefix_leq(ea, from_simple(st, b))


def test_blockwise_meet_agrees_with_generic_greedy():
    for n in (3, 4, 5, 6):
        st = bkl_structure(n)
        simples = st.simples()
        for a in simples:
            for b in simples:
                m = st.meet_simple(a, b)
                assert is_noncrossing(m)
                assert st.leq(m, a) and st.leq(m, b)
        # full greatest-common-prefix check is cubic; keep it to n <= 4
        if n <= 4:
            for a in simples:
                for b in simples:
                    m = st.meet_simple(a, b)
                    for c in simples:
                        if st.leq(c, a) and st.leq(c, b):
                            assert st.leq(c, m)


def test_one_pass_meet_matches_relabelled_pairs():
    """The keyed one-pass labelling against relabelling the pairs of labels:
    every pair for n <= 6, and fixed-seed pairs for n = 8."""
    rng = random.Random(20261018)
    for n in range(2, 9):
        st = bkl_structure(n)
        simples = st.simples()
        if n <= 6:
            pairs = [(a, b) for a in simples for b in simples]
        else:
            special = [st.delta, st.trivial, *st.atoms]
            pairs = [(a, b) for a in special for b in special]
            pairs += [(rng.choice(simples), rng.choice(simples)) for _ in range(20_000)]
        for a, b in pairs:
            assert st.meet_simple(a, b) == _canonical_labels(list(zip(a, b)))


def test_band_index_matches_the_atom_table():
    for n in range(2, 9):
        st = bkl_structure(n)
        for t in range(2, n + 1):
            for s in range(1, t):
                assert st.atoms[_band_index(t, s)] == st.atom(t, s)


def test_generic_element_meet_on_simples_n6(rng):
    st = bkl_structure(6)
    simples = st.simples()
    for _ in range(300):
        a, b = rng.choice(simples), rng.choice(simples)
        assert meet(from_simple(st, a), from_simple(st, b)) == \
            from_simple(st, st.meet_simple(a, b))


def test_block_cycle_round_trip():
    for n in (3, 4, 5, 6):
        st = bkl_structure(n)
        for s in st.simples():
            assert st.from_perm(st.to_perm(s)) == s
            assert st.norm(s) == n - len(blocks_of(s))


def test_band_word_round_trip():
    for n in (3, 4, 5):
        st = bkl_structure(n)
        for s in st.simples():
            bands = st.simple_to_bands(s)
            assert len(bands) == st.norm(s)
            rebuilt = st.trivial
            for t, u in bands:
                rebuilt = st.prod(rebuilt, st.atom(t, u))
            assert rebuilt == s


def test_delta_n_equals_artin_half_twist_squared():
    # the image of the classical Delta^2 under sigma_k -> a_{k+1,k}
    for n in (3, 4, 5):
        st = bkl_structure(n)
        word = []
        for _ in range(2):
            for i in range(1, n):
                word += [(st.atom(k + 1, k), 1) for k in range(i, 0, -1)]
        assert left_normal_form(st, word) == delta_power(st, n)


def test_suffix_order_is_refinement():
    for n in (2, 3, 4, 5, 6):
        st = bkl_structure(n)
        simples = st.simples()
        for a in simples:
            for b in simples:
                assert suffix_leq(st, a, b) == st.leq(a, b)


def test_join_matches_merge_and_uncross_oracle():
    for n in (2, 3, 4, 5, 6):
        st = bkl_structure(n)
        simples = st.simples()
        for a in simples:
            for b in simples:
                assert st.join_simple(a, b) == merge_and_uncross_join(a, b)


def test_from_perm_checks_survive_filled_caches(capsys):
    assert main(["--structure", "bkl", "--n", "6", "table"]) == 0
    capsys.readouterr()
    st = bkl_structure(6)
    crossing = (3, 4, 1, 2, 5, 6)  # cycles (1 3)(2 4)
    decreasing = (3, 1, 2, 4, 5, 6)  # cycle 1 -> 3 -> 2 -> 1
    for perm in (crossing, decreasing):
        with pytest.raises(VerificationError):
            st.from_perm(perm)
        assert perm not in st._from_perm_cache
    for cache in (st._perm_cache, st._perm_inv_cache, st._from_perm_cache):
        assert 0 < len(cache) <= st.simple_count()
