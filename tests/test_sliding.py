"""Cyclic sliding, cycling/decycling, transport and rigidity."""

import random

import pytest

from garside.artin import artin_structure
from garside.bkl import bkl_structure
from garside.core import (
    BudgetExceeded,
    GarsideElement,
    conjugate,
    conjugate_simple,
    delta_power,
    from_simple,
    identity_element,
    inverse,
    left_normal_form,
    multiply,
)
from garside.sliding import (
    final_factor,
    initial_factor,
    is_rigid,
    preferred_prefix,
    slide_to_circuit,
    sliding_trajectory,
)

from conftest import random_element, structures_for_properties
from oracles import (
    ReverseStructure,
    cyclic_right_sliding,
    cyclic_sliding,
    cycling,
    decycling,
    in_rsss,
    in_sc,
    in_sss,
    in_uss,
    iterated_transport,
    meet,
    prefix_leq,
    preferred_suffix,
    prefix_product,
    reverse_rewrite,
    right_transport,
    suffix_geq,
    transport,
    word_to_simple,
)


def el(st, ks):
    return left_normal_form(st, [(st.atom(k), 1) for k in ks])


def test_initial_final_factor_basics(rng):
    st = artin_structure(4)
    for k in range(-2, 3):
        d = delta_power(st, k)
        assert initial_factor(d) == st.trivial
        assert final_factor(d) == st.delta
    x = el(st, [3, 2, 1])
    assert initial_factor(x) == final_factor(x) == word_to_simple(st, [3, 2, 1])


def test_final_complement_is_initial_of_inverse(rng):
    count = 0
    for st in structures_for_properties():
        for _ in range(160):
            x = random_element(st, rng)
            assert st.complement(final_factor(x)) == initial_factor(inverse(x))
            count += 1
    assert count >= 1000


def test_preferred_prefix_paper_values():
    st = artin_structure(4)
    assert preferred_prefix(el(st, [3, 2, 1])) == word_to_simple(st, [3, 2])
    for n in (4, 5, 6):
        stn = artin_structure(n)
        x = el(stn, list(range(1, n)))
        assert preferred_prefix(x) == word_to_simple(stn, list(range(1, n - 1)))
    for k in range(-2, 3):
        assert preferred_prefix(delta_power(st, k)) == st.trivial


def test_preferred_prefix_both_routes(rng):
    """The factor-based computation must agree with the defining meet of
    the initial factors of x and its materialized inverse."""
    count = 0
    for st in structures_for_properties():
        for _ in range(160):
            x = random_element(st, rng)
            direct = preferred_prefix(x)
            via_inverse = st.meet_simple(
                initial_factor(x), initial_factor(inverse(x))
            )
            assert direct == via_inverse
            count += 1
    assert count >= 1000


def test_preferred_prefix_symmetries(rng):
    count = 0
    for st in structures_for_properties():
        for _ in range(160):
            x = random_element(st, rng)
            assert preferred_prefix(x) == preferred_prefix(inverse(x))
            assert cyclic_sliding(inverse(x)) == inverse(cyclic_sliding(x))
            tx = conjugate(x, delta_power(st, 1))
            assert preferred_prefix(tx) == st.tau[preferred_prefix(x)]
            assert cyclic_sliding(tx) == conjugate(cyclic_sliding(x), delta_power(st, 1))
            count += 1
    assert count >= 1000


def test_cyclic_sliding_paper_values():
    st = artin_structure(4)
    assert cyclic_sliding(el(st, [1, 2, 3])) == el(st, [1, 3, 2])
    assert cyclic_sliding(el(st, [2, 1, 3])) == el(st, [2, 1, 3])
    assert cyclic_sliding(el(st, [3, 2, 1])) == el(st, [1, 3, 2])
    for k in range(-2, 3):
        assert cyclic_sliding(delta_power(st, k)) == delta_power(st, k)


def test_sliding_monotonicity(rng):
    count = 0
    for st in structures_for_properties():
        for _ in range(160):
            x = random_element(st, rng)
            sx = cyclic_sliding(x)
            assert sx.inf >= x.inf
            assert sx.sup <= x.sup
            assert sx.canonical_length <= x.canonical_length
            count += 1
    assert count >= 1000


def test_cycling_decycling_are_the_stated_conjugates(rng):
    for st in structures_for_properties():
        for _ in range(60):
            x = random_element(st, rng)
            if not x.factors:
                assert cycling(x) == x and decycling(x) == x
                continue
            assert cycling(x) == conjugate(x, from_simple(st, initial_factor(x)))
            assert decycling(x) == conjugate(
                x, inverse(from_simple(st, final_factor(x)))
            )


def test_cycling_fixes_positive_single_factor():
    st = artin_structure(4)
    for s in st.simples():
        if s == st.trivial or s == st.delta:
            continue
        x = from_simple(st, s)
        assert cycling(x) == x


def _phi_iota(x):
    st = x.structure
    return multiply(
        from_simple(st, final_factor(x)), from_simple(st, initial_factor(x))
    )


def test_four_case_lemma_exhaustive_b4():
    """The dichotomy relating one cyclic sliding to cycling, decycling and
    tau, by divisibility of the wrap-around product, over every element
    with two canonical factors and infimum zero."""
    st = artin_structure(4)
    d1 = delta_power(st, 1)
    tau = lambda y: conjugate(y, d1)
    checked = 0
    for a in st.simples():
        if a == st.trivial or a == st.delta:
            continue
        for b in st.simples():
            if b == st.trivial or b == st.delta:
                continue
            if st.meet_simple(st.complement(a), b) != st.trivial:
                continue
            x = GarsideElement(st, 0, (a, b))
            f = _phi_iota(x)
            below = prefix_leq(f, d1)
            above = prefix_leq(d1, f)
            sx = cyclic_sliding(x)
            # divisibility characterizations of the preferred prefix
            assert below == (preferred_prefix(x) == initial_factor(x))
            assert above == (
                preferred_prefix(x) == st.complement(final_factor(x))
            )
            if below and above:
                assert sx == tau(decycling(x)) == cycling(x)
                assert sx.canonical_length < x.canonical_length
            elif below:
                assert sx == cycling(decycling(x)) == cycling(x)
                assert sx.canonical_length < x.canonical_length
            elif above:
                assert sx == tau(decycling(x)) == decycling(cycling(x))
                assert sx.canonical_length < x.canonical_length
            else:
                assert sx == cycling(decycling(x)) == decycling(cycling(x))
            checked += 1
    assert checked > 100


def test_case_four_on_random_elements(rng):
    for st in structures_for_properties():
        for _ in range(80):
            x = random_element(st, rng)
            if x.canonical_length <= 1:
                continue
            f = _phi_iota(x)
            if prefix_leq(f, delta_power(st, 1)) or prefix_leq(delta_power(st, 1), f):
                continue
            assert cyclic_sliding(x) == cycling(decycling(x)) == decycling(cycling(x))


def test_preferred_suffix_basics(rng):
    for st in [artin_structure(4), bkl_structure(4)]:
        for k in range(-2, 3):
            assert preferred_suffix(delta_power(st, k)) == st.trivial
        for _ in range(40):
            x = random_element(st, rng)
            s = preferred_suffix(x)
            # the conjugate is the mirror-image sliding; sanity: conjugacy
            y = cyclic_right_sliding(x)
            assert y == conjugate(x, inverse(from_simple(st, s)))
            assert y.inf >= x.inf and y.sup <= x.sup


def test_right_sliding_via_reverse_structure(rng):
    """Cyclic right sliding is cyclic sliding with respect to the reverse
    structure; the preferred suffix is the inverse of the reverse-structure
    preferred prefix."""
    count = 0
    for base in [artin_structure(3), artin_structure(4), bkl_structure(4),
                 bkl_structure(5)]:
        rev = ReverseStructure(base)
        for _ in range(260):
            x = random_element(base, rng, length=rng.randint(0, 6))
            rx = reverse_rewrite(x, rev)
            # s*(x) = s<-(x)
            assert reverse_rewrite(cyclic_sliding(rx), base) == cyclic_right_sliding(x)
            # p*(x) = p<-(x)^-1
            p_star = reverse_rewrite(
                from_simple(rev, preferred_prefix(rx)), base
            )
            assert p_star == inverse(from_simple(base, preferred_suffix(x)))
            count += 1
    assert count >= 1000


def test_suffix_prefix_bound_on_super_summit(rng):
    # for super summit z, the preferred suffix of s(z) dominates p(z)
    hits = 0
    for st in structures_for_properties():
        for _ in range(80):
            z, _ = slide_to_circuit(random_element(st, rng))
            if not z.factors:
                continue
            lhs = from_simple(st, preferred_suffix(cyclic_sliding(z)))
            rhs = from_simple(st, preferred_prefix(z))
            assert suffix_geq(lhs, rhs)
            hits += 1
    assert hits > 200


def test_transport_delta_powers(rng):
    count = 0
    for st in structures_for_properties():
        for _ in range(130):
            x = random_element(st, rng)
            for k in (-2, -1, 0, 1, 2):
                assert transport(delta_power(st, k), x) == delta_power(st, k)
                count += 1
    assert count >= 1000


def test_transport_product_rule(rng):
    count = 0
    for st in structures_for_properties():
        for _ in range(160):
            x = random_element(st, rng, length=rng.randint(0, 6))
            a = random_element(st, rng, length=rng.randint(0, 4))
            b = random_element(st, rng, length=rng.randint(0, 4))
            lhs = transport(multiply(a, b), x)
            rhs = multiply(transport(a, x), transport(b, conjugate(x, a)))
            assert lhs == rhs
            count += 1
    assert count >= 1000


def test_transport_positivity(rng):
    count = 0
    for st in structures_for_properties():
        tried = 0
        while count < 0 or tried < 2000 and count < 5000:
            tried += 1
            x = random_element(st, rng, length=rng.randint(0, 6))
            a = left_normal_form(
                st, [(rng.choice(st.atoms), 1) for _ in range(rng.randint(0, 5))]
            )
            xa = conjugate(x, a)
            if not (xa.inf <= x.inf and xa.sup >= x.sup):
                continue
            assert transport(a, x).inf >= 0
            count += 1
    assert count >= 1000


def test_transport_order_and_simplicity(rng):
    order_count = simple_count = 0
    for st in structures_for_properties():
        for _ in range(350):
            x = random_element(st, rng, length=rng.randint(0, 6))
            # order preservation: alpha <= gamma with matching invariants
            a = random_element(st, rng, length=rng.randint(0, 3))
            g = multiply(a, left_normal_form(
                st, [(rng.choice(st.atoms), 1) for _ in range(rng.randint(0, 3))]
            ))
            xg, xa = conjugate(x, g), conjugate(x, a)
            if xg.inf <= xa.inf and xg.sup >= xa.sup:
                assert prefix_leq(transport(a, x), transport(g, x))
                order_count += 1
            # simplicity preservation under matched invariants
            s = rng.choice(st.simples())
            es = from_simple(st, s)
            xs = conjugate(x, es)
            if xs.inf == x.inf and xs.sup == x.sup:
                t = transport(es, x)
                assert t.inf >= 0 and t.sup <= 1
                simple_count += 1
    assert order_count >= 1000
    assert simple_count >= 1000


def test_transport_gcd(rng):
    count = 0
    for st in structures_for_properties():
        for _ in range(400):
            # super summit base points make the hypotheses easy to hit
            x, _ = slide_to_circuit(random_element(st, rng))
            a = random_element(st, rng, length=rng.randint(0, 3))
            b = random_element(st, rng, length=rng.randint(0, 3))
            m = meet(a, b)
            xa, xb, xm = conjugate(x, a), conjugate(x, b), conjugate(x, m)
            if not (xa.inf == xm.inf == xb.inf and xa.sup == xm.sup == xb.sup):
                continue
            assert transport(m, x) == meet(transport(a, x), transport(b, x))
            count += 1
    assert count >= 1000


def test_right_transport_mirrors_left(rng):
    """Right transport under the reverse structure wrapper agrees with the
    native computation."""
    for base in [artin_structure(4), bkl_structure(4)]:
        rev = ReverseStructure(base)
        for _ in range(60):
            x = random_element(base, rng, length=rng.randint(0, 5))
            a = random_element(base, rng, length=rng.randint(0, 3))
            native = right_transport(a, x)
            # the left conjugator a relates x^(a^-1) to x, so the reverse
            # structure transport is anchored at x^(a^-1)
            y = conjugate(x, inverse(a))
            via_rev = reverse_rewrite(
                transport(reverse_rewrite(a, rev), reverse_rewrite(y, rev)), base
            )
            assert native == via_rev


def test_slide_to_circuit_examples():
    st = artin_structure(4)
    x = el(st, [2, 1, 3])
    rep, traj = slide_to_circuit(x)
    assert rep == x
    assert prefix_product(x, traj.entry_index) == identity_element(st)
    x = el(st, [1, 2, 3])
    rep, traj = slide_to_circuit(x)
    assert rep == el(st, [1, 3, 2])
    assert conjugate(x, prefix_product(x, traj.entry_index)) == rep


def test_trajectory_invariants(rng):
    for st in structures_for_properties():
        for _ in range(40):
            x = random_element(st, rng)
            traj = sliding_trajectory(x)
            n, m = traj.entry_index, traj.period
            assert m >= 1
            states = list(traj.states) + [
                cyclic_sliding(traj.states[-1])
            ]
            assert states[n + m] == states[n]
            for i in range(len(traj.states)):
                assert conjugate_simple(traj.states[i], traj.prefixes[i]) == states[i + 1]
            # minimality of the entry point and the period
            for i in range(n):
                assert states[i] not in states[i + 1 :]
            assert conjugate(x, prefix_product(x, n)) == states[n]


def test_length_decrease_within_delta_norm(rng):
    count = 0
    for st in structures_for_properties():
        for _ in range(80):
            x = random_element(st, rng)
            rep, _ = slide_to_circuit(x)
            if x.canonical_length == rep.canonical_length:
                continue
            y = x
            dropped = False
            for _ in range(st.norm_of_delta - 1):
                y = cyclic_sliding(y)
                if y.canonical_length < x.canonical_length:
                    dropped = True
                    break
            assert dropped
            count += 1
    assert count > 50


def test_membership_examples_b4():
    st = artin_structure(4)
    x = el(st, [1, 2, 3])
    assert in_sss(x) and in_uss(x) and in_rsss(x) and not in_sc(x)
    assert in_sc(el(st, [2, 1, 3])) and in_sc(el(st, [1, 3, 2]))
    for k in range(-2, 3):
        d = delta_power(st, k)
        assert in_sss(d) and in_uss(d) and in_rsss(d) and in_sc(d)


def test_recurrence_tests_are_capped():
    """The cycling orbit behind in_uss/in_rsss obeys the state cap, also
    where the sliding trajectory fits well inside it."""
    from garside.words import parse_word

    st = artin_structure(4)
    y = parse_word(st, "D^-5 s2 s3 s1 s3 s2 s2 s3 s1 s1 s2 s3 s2 s1 "
                       "s1 s2 s3 s2 s1 s1 s2 s3 s2 s1 s3 s3 s2")
    assert len(sliding_trajectory(y).states) == 1
    orbit = {y}
    cur = cycling(y)
    while cur not in orbit:
        orbit.add(cur)
        cur = cycling(cur)
    assert len(orbit) == 16
    assert in_sss(y, max_states=2)
    for check in (in_uss, in_rsss):
        with pytest.raises(BudgetExceeded):
            check(y, max_states=2)
        with pytest.raises(BudgetExceeded):
            check(y, max_states=len(orbit) - 1)
    assert in_uss(y, max_states=len(orbit)) == in_uss(y)


def test_rigidity_basics():
    st = artin_structure(4)
    for k in range(-2, 3):
        assert is_rigid(delta_power(st, k))
    fixed = el(st, [2, 1, 3])
    assert cyclic_sliding(fixed) == fixed
    assert not is_rigid(fixed)


def test_rigid_power_formula(rng):
    from garside.core import power

    count = 0
    for st in structures_for_properties():
        while count < 5000:
            x, _ = slide_to_circuit(random_element(st, rng))
            if not is_rigid(x) or not x.factors:
                x = None
            if x is None:
                continue
            p, fs = x.p, x.factors
            for k in (2, 3, 4):
                expected = GarsideElement(
                    st,
                    k * p,
                    tuple(
                        st.tau_pow(f, j * p)
                        for j in range(k - 1, -1, -1)
                        for f in fs
                    ),
                )
                assert power(x, k) == expected
                count += 1
            break
    assert count > 0


def test_rigid_boundedness_chains(rng):
    count = 0
    for st in structures_for_properties():
        found = 0
        for _ in range(400):
            x, _ = slide_to_circuit(random_element(st, rng))
            if not is_rigid(x):
                continue
            s = random_element(st, rng, length=rng.randint(0, 3))
            xs = conjugate(x, s)
            if xs.inf != x.inf or xs.sup != x.sup:
                continue
            bound_p = delta_power(st, s.canonical_length)
            bound_s = delta_power(st, s.sup)
            prev_p = identity_element(st)
            prev_s = s
            for i in range(1, 5):
                cur_p = prefix_product(xs, i)
                cur_s = iterated_transport(s, x, i)
                assert prefix_leq(prev_p, cur_p) and prefix_leq(cur_p, bound_p)
                assert prefix_leq(prev_s, cur_s) and prefix_leq(cur_s, bound_s)
                prev_p, prev_s = cur_p, cur_s
                count += 1
            found += 1
            if found >= 70:
                break
    assert count >= 1000


def test_unbounded_prefix_chain_counterexample():
    # the boundedness above genuinely needs rigidity: from this seed the
    # chain of prefix products keeps growing strictly
    st = artin_structure(4)
    x = el(st, [3, 2, 1])
    prev = prefix_product(x, 0)
    for i in range(1, 11):
        cur = prefix_product(x, i)
        assert prefix_leq(prev, cur) and prev != cur
        prev = cur


def test_trajectory_prefix_product_matches_the_stepwise_oracle(rng):
    """P_i read off the trajectory's prefixes equals the product built one
    sliding at a time, for every i up to two periods past the last state."""
    for st in structures_for_properties():
        for _ in range(10):
            x = random_element(st, rng)
            traj = sliding_trajectory(x)
            k = len(traj.states) + 2 * traj.period - 1
            assert traj.prefix_products(k) == [prefix_product(x, i) for i in range(k + 1)]


def test_prefix_products_conjugate_along_trajectory(rng):
    for st in structures_for_properties():
        for _ in range(30):
            x = random_element(st, rng)
            y = x
            for i in range(4):
                assert conjugate(x, prefix_product(x, i)) == y
                y = cyclic_sliding(y)


def test_prefix_products_are_one_walk(rng, monkeypatch):
    """The chain P_0..P_k equals the products taken one by one, also past
    the trajectory's last state, and is read off one trajectory: no
    preferred prefix beyond the trajectory's own, not k^2 / 2."""
    import garside.sliding

    calls = []
    original = garside.sliding.preferred_prefix

    def counted(z):
        calls.append(z)
        return original(z)

    monkeypatch.setattr(garside.sliding, "preferred_prefix", counted)
    for st in [artin_structure(5), bkl_structure(5)]:
        for k in range(13):
            x = random_element(st, rng, length=12)
            want = [prefix_product(x, i) for i in range(k + 1)]
            calls.clear()
            traj = sliding_trajectory(x)
            assert traj.prefix_products(k) == want
            assert len(calls) == len(traj.states)
