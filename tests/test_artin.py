"""The permutation-braid descriptor for the classical structure."""

import random
from itertools import permutations
from math import factorial

import pytest

from garside.artin import (
    ArtinStructure,
    _compose,
    _invert,
    artin_structure,
)
from garside.cli import main
from garside.core import from_simple, left_normal_form

from conftest import greedy_meet_simple
from oracles import inversion_leq, inversions, prefix_leq, rescanning_simple_to_word, word_to_simple


def test_descriptor_basics():
    st = artin_structure(4)
    assert len(st.simples()) == 24
    assert st.delta == (4, 3, 2, 1)
    assert st.norm_of_delta == 6
    assert artin_structure(3).norm_of_delta == 3
    assert len(st.atoms) == 3
    with pytest.raises(ValueError):
        ArtinStructure(1)


def test_atom_index_out_of_range_is_refused():
    st = artin_structure(4)
    for k in (-1, 0, 4):
        with pytest.raises(ValueError, match=f"atom index {k} out of range for artin-4"):
            st.atom(k)


def test_delta_as_staircase_word():
    # Delta = s1 (s2 s1) (s3 s2 s1) ...
    for n in (3, 4, 5):
        st = artin_structure(n)
        word = []
        for i in range(1, n):
            word += list(range(i, 0, -1))
        assert word_to_simple(st, word) == st.delta
        assert st.norm[st.delta] == len(word)


def test_prefix_test_against_generic_definition():
    # the installed order must agree with positivity of a^-1 b, checked
    # through normal forms, exhaustively for n <= 4
    for n in (2, 3, 4):
        st = artin_structure(n)
        for a in st.simples():
            ea = from_simple(st, a)
            for b in st.simples():
                generic = prefix_leq(ea, from_simple(st, b))
                assert st.leq(a, b) == generic


def test_prefix_test_inversion_count_formulation():
    # inv(a) + inv(a^-1 b) = inv(b) is an equivalent characterization
    for n in (3, 4):
        st = artin_structure(n)
        for a in st.simples():
            for b in st.simples():
                byinv = inversions(a) + inversions(st.lquot(a, b)) == inversions(b)
                assert st.leq(a, b) == byinv


def test_prefix_examples_b3():
    st = artin_structure(3)
    s12 = word_to_simple(st, [1, 2])
    assert st.leq(st.atom(1), s12)
    assert not st.leq(st.atom(2), s12)
    assert all(st.leq(st.trivial, b) for b in st.simples())


def test_complement_and_tau():
    st = artin_structure(4)
    assert st.complement(st.delta) == st.trivial
    assert st.complement(st.trivial) == st.delta
    assert st.tau[st.atom(1)] == st.atom(3)
    # tau is conjugation by Delta and also the strand relabeling
    from garside.core import conjugate
    from garside.core import delta_power

    d = delta_power(st, 1)
    for s in st.simples():
        assert from_simple(st, st.tau[s]) == conjugate(from_simple(st, s), d)
        relabeled = tuple(st.n + 1 - s[st.n - 1 - i] for i in range(st.n))
        assert st.tau[s] == relabeled
        assert st.tau[st.tau[s]] == s


def test_contract_invariants_exhaustive():
    for n in (2, 3, 4, 5):
        st = artin_structure(n)
        for s in st.simples():
            assert st.prod(s, st.complement(s)) == st.delta
            assert st.complement(st.complement(s)) == st.tau[s]
            assert st.norm[s] + st.norm[st.complement(s)] == st.norm_of_delta
            assert st.complement_inv(st.complement(s)) == s


def test_word_round_trip():
    for n in (3, 4, 5, 6):
        st = artin_structure(n)
        for s in st.simples():
            word = st.simple_to_word(s)
            assert len(word) == st.norm[s] == inversions(s)
            assert word_to_simple(st, word) == s


def test_canonical_word_matches_rescanning_oracle():
    # exhaustive up to B_7; B_8 was checked the same way once (40,320 simples)
    for n in range(2, 8):
        st = ArtinStructure(n)
        for s in st.simples():
            assert st.simple_to_word(s) == rescanning_simple_to_word(st, s)


def test_simples_are_sorted():
    for n in range(2, 9):
        simples = ArtinStructure(n).simples()
        assert list(simples) == sorted(simples)
        assert len(set(simples)) == len(simples) == factorial(n)


def test_braid_relation():
    st = artin_structure(3)
    assert word_to_simple(st, [1, 2, 1]) == word_to_simple(st, [2, 1, 2]) == st.delta


def test_normal_form_of_atom_words_matches_length():
    st = artin_structure(4)
    x = left_normal_form(st, [(st.atom(1), 1)] * 3)
    assert x.p == 0 and len(x.factors) == 3


def test_one_pass_lquot_matches_composition_with_inverse():
    for n in (2, 3, 4, 5):
        st = artin_structure(n)
        for s in st.simples():
            inv = _invert(s)
            for b in st.simples():
                assert st.lquot(s, b) == _compose(inv, b)


def greedy_join_simple(st, a, b):
    """Join oracle: partial^-1(partial a /\\' partial b), the greatest common
    suffix taken as the inverse of the greedy meet of the inverses."""
    ca, cb = _invert(st.complement(a)), _invert(st.complement(b))
    return st.complement_inv(_invert(greedy_meet_simple(st, ca, cb)))


def lattice_pairs(st, rng, count):
    """3 * count random pairs of simples: independent, with a special
    element, and one adjacent transposition apart (so the meet is large);
    plus every pair of Delta, the trivial element and the atoms."""
    special = [st.delta, st.trivial, *st.atoms]
    pairs = [(a, b) for a in special for b in special]
    for _ in range(count):
        a, b = list(st.trivial), list(st.trivial)
        rng.shuffle(a)
        rng.shuffle(b)
        pairs.append((tuple(a), tuple(b)))
        pairs.append((tuple(a), rng.choice(special)))
        k = rng.randrange(st.n - 1)
        b = list(a)
        b[k], b[k + 1] = b[k + 1], b[k]
        pairs.append((tuple(a), tuple(b)))
    return pairs


def test_meet_and_join_match_greedy_oracles():
    """The insertion-pass meet and join against the greedy meet, and the
    mask order against the inversion loop: every pair for n <= 5, and
    fixed-seed pairs for n = 6..8 (21,100 at n = 8)."""
    rng = random.Random(20261018)
    for n in range(2, 9):
        st = artin_structure(n)
        if n <= 5:
            pairs = [(a, b) for a in st.simples() for b in st.simples()]
        else:
            pairs = lattice_pairs(st, rng, 7_000)
        for a, b in pairs:
            assert st.leq(a, b) == inversion_leq(a, b)
            assert st.leq(b, a) == inversion_leq(b, a)
            assert st.meet_simple(a, b) == greedy_meet_simple(st, a, b)
            assert st.join_simple(a, b) == greedy_join_simple(st, a, b)


def test_order_mask_cache_holds_at_most_the_simples(capsys):
    assert main(["--n", "5", "table"]) == 0
    capsys.readouterr()
    st = artin_structure(5)
    assert 0 < len(st.order_mask) <= st.simple_count()
    for s in st.simples():
        assert st.order_mask[s].bit_count() == inversions(s)
