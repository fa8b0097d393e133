"""Normal forms, inversion and the lattice operations on elements."""

import random
from itertools import permutations
from pathlib import Path

import pytest

import garside.cli
from garside.artin import ArtinStructure, _compose, _invert, artin_structure
from garside.bkl import BKLStructure, bkl_structure
from garside.core import (
    GarsideStructure,
    Memo,
    _cancel_commuting_pairs,
    _push_factor,
    _push_front,
    conjugate_simple,
    delta_power,
    from_simple,
    identity_element,
    inverse,
    left_normal_form,
    multiply,
    power,
)

from garside.cli import main
from garside.words import _parse_token, band_to_sigma_word

from conftest import (
    letterwise_normal_form,
    random_element,
    random_word,
    rebuild_conjugate_simple,
    stepwise_push_factor,
    structures_for_properties,
    wave_corpus,
)
from oracles import (
    ReverseStructure,
    join,
    meet,
    prefix_leq,
    reverse_rewrite,
    right_join,
    right_meet,
    right_meet_simple,
    suffix_geq,
    suffix_leq,
    tau_pow_closed_form,
    word_to_simple,
)


def atoms_word(st, ks):
    return [(st.atom(k), 1) for k in ks]


def el(st, ks):
    return left_normal_form(st, atoms_word(st, ks))


def assert_normal(x):
    """The defining invariants of a left normal form."""
    st = x.structure
    for f in x.factors:
        assert f != st.trivial and f != st.delta
    for a, b in zip(x.factors, x.factors[1:]):
        assert st.meet_simple(st.complement(a), b) == st.trivial


def local_sliding(st, a, b):
    """The pair (a, b) after the local sliding of one _push_factor step:
    b pushed onto the one-factor list [a], padded back to two factors."""
    fs = [a]
    d = _push_factor(st, fs, b)
    assert d == 0
    return tuple(fs) + (st.trivial,) * (2 - len(fs))


def test_local_sliding_b3():
    st = artin_structure(3)
    a, b = st.atom(1), st.atom(2)
    # slid element is the full second factor here
    out = local_sliding(st, a, b)
    assert out == (st.prod(a, b), st.trivial)


def test_local_sliding_left_weighted_fixed(rng):
    for st in structures_for_properties():
        for _ in range(60):
            x = random_element(st, rng)
            for a, b in zip(x.factors, x.factors[1:]):
                assert local_sliding(st, a, b) == (a, b)


def test_local_sliding_matches_preferred_prefix():
    # wrapping the last factor of x = s1 s2 s3 against its twisted first
    # factor (the adjacent pair inside x^2) slides exactly s1 s2, the same
    # element the square's normal form absorbs into its first factor
    st = artin_structure(4)
    x = el(st, [1, 2, 3])
    xr, x1 = x.factors[-1], st.tau_pow(x.factors[0], -x.p)
    s = st.meet_simple(st.complement(xr), x1)
    assert s == word_to_simple(st, [1, 2])
    sq = el(st, [1, 2, 3, 1, 2, 3])
    assert sq.factors[0] == st.prod(x.factors[-1], s)


def test_normal_form_squares_b4():
    st = artin_structure(4)
    x = el(st, [1, 2, 3, 1, 2, 3])
    assert x.p == 0
    assert x.factors == (word_to_simple(st, [1, 2, 3, 1, 2]), st.atom(3))
    y = el(st, [3, 2, 1, 3, 2, 1])
    assert y.p == 0
    assert y.factors == (word_to_simple(st, [3, 2, 1, 3, 2]), st.atom(1))


def test_normal_form_empty_word():
    st = artin_structure(4)
    x = left_normal_form(st, [])
    assert x.p == 0 and x.factors == ()


def test_element_equality_and_hash_ignore_the_structure():
    # an element is its normal form (p, factors); a second descriptor of
    # the same group gives an equal element with the same hash
    x, y = el(artin_structure(4), [1, 2]), el(ArtinStructure(4), [1, 2])
    assert x.structure is not y.structure
    assert x == y and hash(x) == hash(y) and len({x, y}) == 1
    assert x != el(artin_structure(4), [2, 1]) and x != (x.p, x.factors)


def test_normal_form_validity_random(rng):
    for st in structures_for_properties():
        for _ in range(60):
            assert_normal(random_element(st, rng))


def test_normal_form_uniqueness_across_factorizations(rng):
    """The normal form must not depend on how the word is associated or
    on inserted cancelling pairs."""
    for st in structures_for_properties():
        for _ in range(40):
            word = random_word(st, rng)
            x = left_normal_form(st, word)
            # rebracket: fold letters into elements in random chunks
            y = identity_element(st)
            i = 0
            while i < len(word):
                j = rng.randint(i + 1, len(word))
                y = multiply(y, left_normal_form(st, word[i:j]))
                i = j
            assert y == x
            # insert a cancelling pair at a random position
            k = rng.randint(0, len(word))
            s = rng.choice(st.simples())
            padded = word[:k] + [(s, 1), (s, -1)] + word[k:]
            assert left_normal_form(st, padded) == x


def _oracle_words(st, rng):
    """Words that exercise the letter runs of left_normal_form: long
    same-sign runs, alternating signs, Delta^k letters, trivial and Delta
    letters inside runs, and (classical only) expanded band letters."""
    def letter(sign):
        return rng.choice(st.atoms), sign

    runs = []
    for _ in range(8):
        sign = rng.choice([1, -1])
        runs += [letter(sign) for _ in range(rng.randint(1, 12))]
    yield runs
    yield [letter(1 - 2 * (i % 2)) for i in range(40)]
    with_delta = [letter(rng.choice([1, -1])) for _ in range(30)]
    for k in range(-3, 4):
        with_delta.insert(rng.randint(0, len(with_delta)), (st.delta, k))
    yield with_delta
    inside = []
    for _ in range(6):
        sign = rng.choice([1, -1])
        run = [letter(sign) for _ in range(rng.randint(2, 8))]
        run.insert(rng.randint(0, len(run)), (st.trivial, 1))
        run.insert(rng.randint(0, len(run)), (st.delta, 1))
        inside += run
    yield inside
    if hasattr(st, "simple_to_word"):  # classical: band letters as sigma words
        bands = []
        for _ in range(10):
            s = rng.randint(1, st.n - 1)
            t = rng.randint(s + 1, st.n)
            word = [(st.atom(k), e) for k, e in band_to_sigma_word(t, s)]
            if rng.random() < 0.5:
                word = [(a, -e) for a, e in reversed(word)]
            bands += word + [letter(rng.choice([1, -1]))]
        yield bands


def _unit_delta_letters(st, word):
    """The same word with every Delta^k letter spelled as |k| letters."""
    out = []
    for s, e in word:
        if s == st.delta:
            out += [(s, 1 if e > 0 else -1)] * abs(e)
        else:
            out.append((s, e))
    return out


def test_left_normal_form_matches_letterwise_oracle():
    rng = random.Random(20261018)
    for n in range(3, 9):
        for st in (artin_structure(n), bkl_structure(n)):
            for word in _oracle_words(st, rng):
                x = left_normal_form(st, word)
                assert x == letterwise_normal_form(st, _unit_delta_letters(st, word))
                assert_normal(x)


def test_left_normal_form_rejects_non_unit_exponents():
    st = artin_structure(4)
    for e in (0, 2, -2):
        with pytest.raises(ValueError):
            left_normal_form(st, [(st.atom(1), 1), (st.atom(2), e)])
    assert left_normal_form(st, [(st.delta, 2)]) == delta_power(st, 2)


def _token_words(st, rng):
    """Token strings with random signs: sigma and band tokens mixed on both
    structures, D^k tokens, and (classical only) permutation literals.  A
    third of the tokens invert an earlier one, so inverse pairs meet across
    commuting letters and across letters that stop the scan."""
    n = st.n

    def token():
        r = rng.random()
        if r < 0.45:
            tok = f"s{rng.randint(1, n - 1)}"
        elif r < 0.85:
            s = rng.randint(1, n - 1)
            tok = f"a({rng.randint(s + 1, n)},{s})"
        elif r < 0.93 or not hasattr(st, "simple_to_word"):
            return f"D^{rng.randint(-2, 2)}"
        else:
            return "[" + ",".join(map(str, rng.sample(range(1, n + 1), n))) + "]"
        return tok + rng.choice(["", "^-1"])

    for _ in range(6):
        toks: list = []
        for _ in range(rng.randint(0, 40)):
            earlier = [t for t in toks[-6:] if t[0] in "sa"]
            if earlier and rng.random() < 0.35:
                t = rng.choice(earlier)
                toks.append(t[:-3] if t.endswith("^-1") else t + "^-1")
            else:
                toks.append(token())
        yield toks


def test_cancel_pass_keeps_the_normal_form():
    rng = random.Random(20261019)
    cancelled = 0
    for n in range(3, 9):
        for st in (artin_structure(n), bkl_structure(n)):
            for toks in _token_words(st, rng):
                word = [letter for i, t in enumerate(toks, 1)
                        for letter in _parse_token(st, t, i)]
                kept = [(s, e) for s, e, _ in _cancel_commuting_pairs(st, word)]
                cancelled += len(word) - len(kept)
                expected = letterwise_normal_form(st, _unit_delta_letters(st, word))
                assert letterwise_normal_form(st, _unit_delta_letters(st, kept)) == expected
                assert left_normal_form(st, word) == expected
    assert cancelled > 300  # the pass did cancel across these words


def test_cancel_pass_examples():
    st = artin_structure(5)
    s1, s2, s3 = st.atom(1), st.atom(2), st.atom(3)

    def kept(word):
        return [(s, e) for s, e, _ in _cancel_commuting_pairs(st, word)]

    # s1 commutes with s3: the pair cancels across it
    assert kept([(s1, 1), (s3, 1), (s1, -1)]) == [(s3, 1)]
    # s2 does not commute with s1, Delta and non-atoms stop the scan
    for stop in [(s2, 1), (st.delta, 1), (st.prod(s1, s3), 1)]:
        assert kept([(s1, 1), stop, (s1, -1)]) == [(s1, 1), stop, (s1, -1)]
    # a cancelled pair lets an outer pair meet
    assert kept([(s3, -1), (s1, 1), (s1, -1), (s3, 1)]) == []


def test_cancel_pass_leaves_non_unit_exponents_to_raise():
    st = artin_structure(4)
    a, c = st.atom(1), st.atom(3)
    for word in ([(a, 2), (a, -1)], [(a, 1), (a, 2), (a, -1)],
                 [(a, 1), (a, -1), (a, 2)], [(a, 1), (c, 2), (a, -1)],
                 [(a, -1), (c, 0), (a, 1)]):
        with pytest.raises(ValueError):
            left_normal_form(st, word)


def test_atom_commutation_matches_the_textbook_rules():
    for n in range(2, 9):
        st = artin_structure(n)
        for i in range(n - 1):
            for j in range(n - 1):
                if i != j:
                    assert st._commute_cache[i * len(st.atoms) + j] == (abs(i - j) >= 2)
        st = bkl_structure(n)
        bands = [(t, s) for t in range(2, n + 1) for s in range(1, t)]
        assert [st.atom(t, s) for t, s in bands] == list(st.atoms)
        for i, (t, s) in enumerate(bands):
            for j, (r, q) in enumerate(bands):
                if i != j:
                    assert st._commute_cache[i * len(st.atoms) + j] == ((t - r) * (t - q) * (s - r) * (s - q) > 0)


def test_inverse_closed_formula(rng):
    for st in structures_for_properties():
        for _ in range(40):
            x = random_element(st, rng)
            xi = inverse(x)
            assert_normal(xi)
            assert multiply(x, xi) == identity_element(st)
            assert multiply(xi, x) == identity_element(st)
            assert xi.inf == -x.sup and xi.sup == -x.inf
            assert xi.canonical_length == x.canonical_length


def test_inverse_of_atom_b3():
    st = artin_structure(3)
    x = inverse(el(st, [1]))
    assert x.p == -1
    assert x.factors == (st.complement_inv(st.atom(1)),)
    assert x.factors == (word_to_simple(st, [1, 2]),)


def test_inverse_of_delta_powers():
    st = artin_structure(4)
    for k in range(-3, 4):
        assert inverse(delta_power(st, k)) == delta_power(st, -k)


def test_power_basics(rng):
    for st in structures_for_properties():
        for _ in range(15):
            x = random_element(st, rng, length=rng.randint(0, 5))
            assert power(x, 0) == identity_element(st)
            assert power(x, 1) == x
            assert power(x, 3) == multiply(x, multiply(x, x))
            assert power(x, -2) == inverse(multiply(x, x))


def test_delta_of_bkl_satisfies_power_identity():
    # the n-th power of the dual Garside element is the full twist
    for n in (3, 4, 5):
        st = bkl_structure(n)
        assert power(delta_power(st, 1), n) == delta_power(st, n)
        # and equals the image of the classical half twist squared
        word = []
        for rep in range(2):
            for i in range(1, n):
                word += [(st.atom(k + 1, k), 1) for k in range(i, 0, -1)]
        assert left_normal_form(st, word) == delta_power(st, n)


def test_prefix_order_basics(rng):
    st = artin_structure(3)
    assert not prefix_leq(el(st, [1]), el(st, [2]))
    for s in structures_for_properties():
        for _ in range(40):
            x = random_element(s, rng)
            assert prefix_leq(x, x)
            assert prefix_leq(delta_power(s, x.inf), x)
            assert prefix_leq(x, delta_power(s, x.sup))
            assert suffix_geq(x, delta_power(s, x.inf))
            assert suffix_geq(delta_power(s, x.sup), x)


def test_delta_power_prefix_characterizes_inf(rng):
    for st in structures_for_properties():
        for _ in range(25):
            x = random_element(st, rng)
            for p in range(x.inf - 2, x.inf + 3):
                assert prefix_leq(delta_power(st, p), x) == (p <= x.inf)


def test_meet_basics(rng):
    st = artin_structure(4)
    assert meet(el(st, [1, 2]), el(st, [1, 3])) == el(st, [1])
    for s in structures_for_properties():
        for _ in range(20):
            a = random_element(s, rng, length=rng.randint(0, 6))
            assert meet(a, a) == a
            if a.inf >= 0:
                assert meet(identity_element(s), a) == identity_element(s)


def test_meet_join_are_bounds(rng):
    for st in structures_for_properties():
        for _ in range(20):
            a = random_element(st, rng, length=rng.randint(0, 6))
            b = random_element(st, rng, length=rng.randint(0, 6))
            m = meet(a, b)
            assert prefix_leq(m, a) and prefix_leq(m, b)
            j = join(a, b)
            assert prefix_leq(a, j) and prefix_leq(b, j)
            rm = right_meet(a, b)
            assert suffix_geq(a, rm) and suffix_geq(b, rm)
            rj = right_join(a, b)
            assert suffix_geq(rj, a) and suffix_geq(rj, b)


def test_element_meet_agrees_with_simple_meet_exhaustive():
    """The generic greedy meet must agree with the native simple meet."""
    for st in [artin_structure(3), artin_structure(4), bkl_structure(4)]:
        simples = st.simples()
        for a in simples:
            ea = from_simple(st, a)
            for b in simples:
                m = meet(ea, from_simple(st, b))
                assert m == from_simple(st, st.meet_simple(a, b))


def test_element_meet_agrees_with_simple_meet_sampled(rng):
    for st in [artin_structure(5), bkl_structure(6)]:
        simples = st.simples()
        for _ in range(250):
            a, b = rng.choice(simples), rng.choice(simples)
            m = meet(from_simple(st, a), from_simple(st, b))
            assert m == from_simple(st, st.meet_simple(a, b))


def test_right_meet_agrees_with_brute_force_suffixes():
    st = artin_structure(4)
    simples = st.simples()
    for a in simples:
        for b in simples:
            common = [
                s for s in simples
                if suffix_leq(st, s, a) and suffix_leq(st, s, b)
            ]
            best = max(common, key=st.norm.__getitem__)
            # the maximum is unique: everything else divides it
            assert all(suffix_leq(st, s, best) for s in common)
            assert right_meet_simple(st, a, b) == best
            assert right_meet(from_simple(st, a), from_simple(st, b)) == \
                from_simple(st, best)


def test_simple_lattice_laws_exhaustive():
    for st in [artin_structure(3), artin_structure(4), bkl_structure(4)]:
        simples = st.simples()
        for a in simples:
            for b in simples:
                m = st.meet_simple(a, b)
                assert m == st.meet_simple(b, a)
                assert st.leq(m, a) and st.leq(m, b)
                # greatest: any common prefix divides the meet
                assert st.meet_simple(a, a) == a
                assert st.tau[st.meet_simple(a, b)] == \
                    st.meet_simple(st.tau[a], st.tau[b])
        for a in simples:
            for b in simples:
                for c in (simples[0], simples[len(simples) // 2], simples[-1]):
                    assert st.meet_simple(st.meet_simple(a, b), c) == \
                        st.meet_simple(a, st.meet_simple(b, c))


def test_meet_is_greatest_common_prefix_exhaustive():
    st = artin_structure(4)
    simples = st.simples()
    for a in simples:
        for b in simples:
            m = st.meet_simple(a, b)
            for c in simples:
                if st.leq(c, a) and st.leq(c, b):
                    assert st.leq(c, m)


def test_order_duality_via_reverse_structure(rng):
    for base in [artin_structure(4), bkl_structure(4)]:
        rev = ReverseStructure(base)
        for _ in range(60):
            a = random_element(base, rng, length=rng.randint(0, 5))
            b = random_element(base, rng, length=rng.randint(0, 5))
            ra, rb = reverse_rewrite(a, rev), reverse_rewrite(b, rev)
            assert reverse_rewrite(ra, base) == a
            # a <= b iff a^-1 >= b^-1 iff b <=* a
            assert prefix_leq(a, b) == suffix_geq(inverse(a), inverse(b))
            assert prefix_leq(a, b) == prefix_leq(rb, ra)


def test_reverse_structure_contract():
    """The derived reverse descriptor satisfies the same contract."""
    for base in [artin_structure(3), bkl_structure(4)]:
        rev = ReverseStructure(base)
        for s in rev.simples():
            assert rev.prod(s, rev.complement(s)) == rev.delta
            assert rev.complement(rev.complement(s)) == rev.tau[s]
            assert rev.norm[s] + rev.norm[rev.complement(s)] == rev.norm_of_delta
        for a in rev.simples():
            for b in rev.simples():
                m = rev.meet_simple(a, b)
                assert rev.leq(m, a) and rev.leq(m, b)
                for c in rev.simples():
                    if rev.leq(c, a) and rev.leq(c, b):
                        assert rev.leq(c, m)


def test_reverse_quotient_is_the_base_right_quotient():
    """The reverse structure's lquot(s, b) = partial^-1(s partial(b)) is the
    base right quotient b s^-1, read off the permutations, on every pair
    where s is a suffix of b."""
    pairs = 0
    for base in [artin_structure(n) for n in (2, 3, 4, 5)] + [
        bkl_structure(n) for n in (2, 3, 4, 5, 6)
    ]:
        rev = ReverseStructure(base)
        if isinstance(base, BKLStructure):
            def right_quotient(b, s):
                return base.from_perm(_compose(base.to_perm(b), _invert(base.to_perm(s))))
        else:
            def right_quotient(b, s):
                return _compose(b, _invert(s))
        simples = base.simples()
        for b in simples:
            for s in simples:
                if suffix_leq(base, s, b):
                    assert rev.lquot(s, b) == right_quotient(b, s)
                    pairs += 1
    # intervals of the weak order (n <= 5) and of the non-crossing
    # partition lattice (n <= 6)
    assert pairs == 2070 + 1771


def test_norm_additivity_on_positive_words(rng):
    for st in structures_for_properties():
        for _ in range(40):
            length = rng.randint(0, 12)
            word = [(rng.choice(st.atoms), 1) for _ in range(length)]
            x = left_normal_form(st, word)
            assert x.inf >= 0
            assert sum(st.norm[f] for f in x.factors) + x.inf * st.norm_of_delta \
                == length


def test_conjugate_simple_matches_generic_conjugation(rng):
    from garside.core import conjugate

    for st in structures_for_properties():
        for _ in range(40):
            x = random_element(st, rng)
            s = rng.choice(st.simples())
            assert conjugate_simple(x, s) == conjugate(x, from_simple(st, s))


def test_waves_match_stepwise_oracles():
    """Pushing at the back, pushing at the front and conjugating by a simple
    give the Delta power and factors of the oracles that run every wave to
    the front or rebuild the list, on the fixed-seed corpus."""
    mid_wave_deltas = 0
    for x, cs in wave_corpus():
        st = x.structure
        for c in cs:
            fs, want = list(x.factors), list(x.factors)
            d = stepwise_push_factor(st, want, c)
            assert (_push_factor(st, fs, c), fs) == (d, want)
            mid_wave_deltas += d == 1 and c != st.delta

            fs, want = list(x.factors), []
            d = stepwise_push_factor(st, want, c)
            for f in x.factors:
                d += stepwise_push_factor(st, want, f)
            assert (_push_front(st, fs, c), fs) == (d, want)

            y, z = conjugate_simple(x, c), rebuild_conjugate_simple(x, c)
            assert (y.p, y.factors) == (z.p, z.factors)
    assert mid_wave_deltas > 0


def count_meets(monkeypatch, structures):
    """Patch meet_simple on each structure to count its calls; returns a
    one-element list holding the count.  The patch is an entry of the
    instance's __dict__, which undo deletes, so no bound method is left
    behind to shadow the class attribute."""
    calls = [0]
    for st in structures:
        def counted(a, b, meet=st.meet_simple):
            calls[0] += 1
            return meet(a, b)
        monkeypatch.setitem(vars(st), "meet_simple", counted)
    return calls


def test_delta_leaves_the_wave_after_one_meet(monkeypatch):
    rng = random.Random(7)
    for st in (artin_structure(6), bkl_structure(6)):
        x = random_element(st, rng, 120)
        assert len(x.factors) >= 20
        calls = count_meets(monkeypatch, [st])
        fs = list(x.factors)
        assert _push_factor(st, fs, st.complement(x.factors[-1])) == 1
        assert calls[0] == 1
        assert fs == [st.tau[f] for f in x.factors[:-1]]


def test_conjugate_simple_takes_fewer_meets_than_the_rebuild(monkeypatch):
    corpus = wave_corpus()
    calls = count_meets(monkeypatch, {id(x.structure): x.structure
                                      for x, _ in corpus}.values())
    waves = rebuild = 0
    for x, cs in corpus:
        for c in cs:
            start = calls[0]
            conjugate_simple(x, c)
            waves += calls[0] - start
            start = calls[0]
            rebuild_conjugate_simple(x, c)
            rebuild += calls[0] - start
    # both waves stop early: well under half the meets of the rebuild
    assert 2 * waves < rebuild


def test_join_simple_matches_complement_definition():
    """a v b = partial^-1(partial a /\\' partial b), with the generic greedy
    right meet, on all pairs of simples; and it is the least upper bound."""
    for st in [artin_structure(n) for n in (2, 3, 4, 5)] + [
        bkl_structure(n) for n in (2, 3, 4, 5, 6)
    ]:
        simples = st.simples()
        for a in simples:
            ca = st.complement(a)
            for b in simples:
                j = st.join_simple(a, b)
                generic = right_meet_simple(st, ca, st.complement(b))
                assert j == st.complement_inv(generic)
                assert st.leq(a, j) and st.leq(b, j)
        if st.n <= 4:
            for a in simples:
                for b in simples:
                    j = st.join_simple(a, b)
                    assert all(st.leq(j, c) for c in simples
                               if st.leq(a, c) and st.leq(b, c))


def test_tau_pow_matches_its_closed_form():
    """tau_pow(s, k) through the tau memo against the closed form, on every
    simple for n <= 6 and every k in -2n..2n; on the dual structure k mod n
    above n/2 takes the tau_inv branch."""
    for n in range(2, 7):
        for st in (ArtinStructure(n), BKLStructure(n)):
            for s in st.simples():
                for k in range(-2 * n, 2 * n + 1):
                    assert st.tau_pow(s, k) == tau_pow_closed_form(st, s, k), (st.name, s, k)


def test_every_per_simple_memo_is_a_memo_that_holds_its_function(monkeypatch, capsys):
    """One memo policy: every per-simple memo is a Memo, except the tables
    kept by hand for the reason each lookup gives.  tau, tau_inv, norm,
    order_mask and the dual from_mask are the instance memos themselves,
    with no method of the same name on any structure class (an instance
    memo would hide one that came back), and no module of the package
    reads a memo through __getitem__.  After a `table` and an `nf` run,
    each entry equals a fresh computation of its function."""
    sts = {"artin": ArtinStructure(5), "bkl": BKLStructure(6)}
    by_hand = {"artin": {"_render_cache", "_token_cache"},
               "bkl": {"_from_perm_cache", "_render_cache", "_token_cache"}}
    subscripted = {"artin": {"tau", "tau_inv", "norm", "order_mask"},
                   "bkl": {"tau", "tau_inv", "norm", "order_mask", "from_mask"}}
    for name, st in sts.items():
        dicts = {a for a, v in vars(st).items() if isinstance(v, dict)}
        assert {a for a in dicts if not isinstance(getattr(st, a), Memo)} == by_hand[name]
        assert all(isinstance(vars(st).get(a), Memo) for a in subscripted[name]), name
    for cls in (GarsideStructure, ArtinStructure, BKLStructure):
        assert subscripted["bkl"].isdisjoint(vars(cls)), cls.__name__
    package = Path(garside.cli.__file__).parent
    assert [p.name for p in sorted(package.glob("*.py"))
            if "__getitem__" in p.read_text()] == []
    monkeypatch.setattr(garside.cli, "artin_structure", lambda n: sts["artin"])
    monkeypatch.setattr(garside.cli, "bkl_structure", lambda n: sts["bkl"])
    for name, st in sts.items():
        for argv in (["table"], ["nf", "s1 s3 s2^-1 s1^-1 s3^-1 D^-1 s4 s2"]):
            assert main(["--structure", name, "--n", str(st.n), *argv]) == 0
    capsys.readouterr()
    for st in sts.values():
        for attr, memo in vars(st).items():
            if isinstance(memo, Memo):
                for key, value in list(memo.items()):
                    assert memo.compute(key) == value, (st.name, attr, key)
        for s, t in st.tau.items():
            assert t == st.complement(st.complement(s))
        for s, c in st._complement_cache.items():
            assert st.prod(s, c) == st.delta
    st = sts["bkl"]
    for s, m in st._complement_masks.items():
        assert m == st.order_mask[st.complement(s)]
