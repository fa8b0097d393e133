"""The non-crossing-partition descriptor for the dual structure."""

import hashlib
import random
from itertools import permutations
from math import comb

import pytest

from garside.artin import _compose, _invert, artin_structure
from garside.bkl import (
    BKLStructure,
    _band_index,
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

from oracles import (
    block_mask,
    block_perm,
    blockwise_meet,
    canonical_labels,
    crossing_pair,
    cycle_partition,
    filtered_noncrossing_partitions,
    meet,
    pairwise_noncrossing,
    prefix_leq,
    refinement_leq,
    set_partitions,
    suffix_leq,
)


def catalan(n):
    return comb(2 * n, n) // (n + 1)


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
    pair = crossing_pair(labels)
    while pair is not None:
        merge(*pair)
        pair = crossing_pair(labels)
    return canonical_labels(labels)


def lattice_pairs(st, rng):
    """Every pair of simples for n <= 6; for larger n, every pair of Delta,
    the trivial element and the atoms, and 20,000 random pairs."""
    simples = st.simples()
    if st.n <= 6:
        return [(a, b) for a in simples for b in simples]
    special = [st.delta, st.trivial, *st.atoms]
    pairs = [(a, b) for a in special for b in special]
    return pairs + [(rng.choice(simples), rng.choice(simples)) for _ in range(20_000)]


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


def test_stack_pass_matches_the_pairwise_crossing_test():
    """The stack pass against comparing every pair of arcs, on every
    restricted-growth string (canonically labelled set partition) of
    length n <= 9: 26,442 partitions."""
    count = 0
    for n in range(1, 10):
        for labels in set_partitions(n):
            assert is_noncrossing(labels) == pairwise_noncrossing(labels), labels
            count += 1
    assert count == 26_442


def random_noncrossing(n, rng):
    """A random non-crossing partition: the walk of BKLStructure.simples
    with a random step, so every partition has positive probability."""
    labels, open_, blocks = [], [], 0
    for _ in range(n):
        k = rng.randrange(len(open_) + 1)
        if k == len(open_):
            labels.append(blocks)
            open_.append(blocks)
            blocks += 1
        else:
            labels.append(open_[k])
            del open_[k + 1:]
    return tuple(labels)


def test_one_pass_conversions_match_block_oracles():
    """to_perm, from_perm, _order_mask and from_mask against the block-list
    oracles on every non-crossing partition for n <= 8 and on fixed-seed
    random ones for n = 10..14; atom against relabelling by first
    occurrence."""
    rng = random.Random(20261020)
    for n in [*range(2, 9), *range(10, 15)]:
        st = BKLStructure(n)
        parts = st.simples() if n <= 8 else {random_noncrossing(n, rng) for _ in range(300)}
        for s in parts:
            perm, mask = block_perm(s), block_mask(s)
            assert st.to_perm(s) == perm
            assert st.from_perm(perm) == s == cycle_partition(perm)
            assert st._order_mask(s) == mask
            assert st.from_mask[mask] == s
        for t in range(2, n + 1):
            for u in range(1, t):
                raw = list(range(n))
                raw[t - 1] = u - 1
                assert st.atom(t, u) == canonical_labels(raw)


def test_decoders_refuse_what_is_not_a_simple():
    """from_perm raises exactly where the cycle oracle finds a cycle that
    does not increase from its minimum, or two cycles that cross, on every
    permutation for n <= 7; from_mask raises exactly on the masks of no
    non-crossing partition, on every mask for n <= 6."""
    for n in range(2, 8):
        st = BKLStructure(n)
        for perm in permutations(range(1, n + 1)):
            want = cycle_partition(perm)
            if want is None:
                with pytest.raises(VerificationError):
                    st.from_perm(perm)
            else:
                assert st.from_perm(perm) == want
        if n <= 6:
            masks = {block_mask(s): s for s in st.simples()}
            for m in range(1 << n * (n - 1) // 2):
                if m in masks:
                    assert st.from_mask[m] == masks[m]
                else:
                    with pytest.raises(VerificationError):
                        st.from_mask[m]
    with pytest.raises(VerificationError):
        BKLStructure(3).from_perm((3, 1, 2))  # the cycle 1 -> 3 -> 2 falls


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
            assert st.complement(st.complement(s)) == st.tau[s]
            assert st.norm[s] + st.norm[st.complement(s)] == st.norm_of_delta
            assert st.complement_inv(st.complement(s)) == s
            assert st.tau_pow(s, st.tau_order) == s


def test_tau_is_delta_conjugation():
    from garside.core import conjugate

    for n in (3, 4, 5):
        st = bkl_structure(n)
        d = delta_power(st, 1)
        for s in st.simples():
            assert from_simple(st, st.tau[s]) == conjugate(from_simple(st, s), d)


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
    """The mask meet (the AND of the two same-block relations, decoded)
    against relabelling the pairs of labels and against the one-pass keyed
    labelling, and the mask order against the refinement loop: every pair
    for n <= 6, and fixed-seed pairs for n = 7, 8."""
    rng = random.Random(20261018)
    for n in range(2, 9):
        st = bkl_structure(n)
        for a, b in lattice_pairs(st, rng):
            m = st.meet_simple(a, b)
            assert m == canonical_labels(zip(a, b)) == blockwise_meet(n, a, b)
            assert st.leq(a, b) == refinement_leq(a, b)
            assert st.leq(b, a) == refinement_leq(b, a)


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
            assert st.norm[s] == n - len(blocks_of(s))


def test_band_word_round_trip():
    for n in (3, 4, 5):
        st = bkl_structure(n)
        for s in st.simples():
            bands = st.simple_to_bands(s)
            assert len(bands) == st.norm[s]
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
    """The mask join against merging and uncrossing blocks, and against
    partial^-1 of the blockwise meet of the complements: every pair for
    n <= 6, and fixed-seed pairs for n = 8."""
    rng = random.Random(20261019)
    for n in (2, 3, 4, 5, 6, 8):
        st = bkl_structure(n)
        for a, b in lattice_pairs(st, rng):
            j = st.join_simple(a, b)
            assert j == merge_and_uncross_join(a, b)
            assert j == st.complement_inv(
                blockwise_meet(n, st.complement(a), st.complement(b)))


def test_dual_b10_sliding_circuits_are_pinned(capsys):
    """The set of sliding circuits of a dual B_10 class, 2,160 elements,
    recorded before the conversions became one pass each."""
    assert main(["--structure", "bkl", "--n", "10", "sc",
                 "a(3,1) a(5,4) a(8,2) a(10,6)"]) == 0
    out = capsys.readouterr().out
    assert out.count("\n") == 2160
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "2c3097930807ed9d344cfad5e587d7f6c354b179127a3417882d1fdb925ba098")


def test_one_pass_lquot_matches_composition_with_inverse():
    """The dual quotient s^-1 b, one pass over the two permutations, is the
    partition of to_perm(s)^-1 to_perm(b), on every pair s <= b."""
    for n in range(2, 8):
        st = BKLStructure(n)
        simples = st.simples()
        for s in simples:
            inv = _invert(st.to_perm(s))
            for b in simples:
                if st.leq(s, b):
                    assert st.lquot(s, b) == st.from_perm(_compose(inv, st.to_perm(b)))


def test_each_simple_has_one_permutation_object(capsys):
    """from_perm keys its memo by the very tuple that to_perm returns."""
    assert main(["--structure", "bkl", "--n", "6", "table"]) == 0
    capsys.readouterr()
    st = bkl_structure(6)
    assert st._from_perm_cache
    for perm, s in st._from_perm_cache.items():
        assert perm is st._perm_cache[s]


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
    # the same-block relation of {1,3},{2,4}, and one that is not transitive
    crossing_mask = 1 << _band_index(3, 1) | 1 << _band_index(4, 2)
    open_chain = 1 << _band_index(2, 1) | 1 << _band_index(3, 2)
    for mask in (crossing_mask, open_chain):
        with pytest.raises(VerificationError):
            st.from_mask[mask]
        assert mask not in st.from_mask
    for cache in (st._perm_cache, st._from_perm_cache,
                  st.order_mask, st.from_mask,
                  st._complement_masks, st._join_by_mask):
        assert 0 < len(cache) <= st.simple_count()
