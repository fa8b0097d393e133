"""Sliding circuits graph, summit sets, solver and conjugator oracles."""

import random

import pytest

from garside.artin import artin_structure
from garside.bkl import bkl_structure
from garside.circuits import (
    BudgetExceeded,
    Budgets,
    _SCMembership,
    _summit_conjugator,
    _tau_orbit,
    compute_scg,
    compute_sss,
    indecomposable_conjugators,
    sliding_circuits_in_sss,
    solve_csp,
)
from garside.core import (
    GarsideElement,
    VerificationError,
    conjugate,
    conjugate_simple,
    delta_power,
    from_simple,
    identity_element,
    inverse,
    left_normal_form,
    multiply,
    power,
)
from garside.sliding import (
    is_rigid,
    preferred_prefix,
    prefix_products,
    slide_to_circuit,
    sliding_trajectory,
)
from garside.words import parse_word

from conftest import (
    full_graph_conjugator,
    random_element,
    scan_indecomposable_conjugators,
    sss_with_witnesses,
)
from oracles import (
    cyclic_sliding,
    in_sc,
    in_sss,
    iterated_transport,
    join,
    meet,
    minimal_conjugator,
    minimal_sc_conjugator,
    minimal_sss_conjugator,
    prefix_leq,
    prefix_product,
    slide_witness,
    sliding_circuit_set,
    solve_cdp,
)


def el(st, ks):
    return left_normal_form(st, [(st.atom(k), 1) for k in ks])


def delta_seed(st):
    """sigma_{n-1} ... sigma_1 as an element of the classical structure."""
    return el(st, list(range(st.n - 1, 0, -1)))


def test_benchmark_sets_b4():
    st = artin_structure(4)
    x = el(st, [1, 2, 3])
    assert compute_sss(x) == frozenset(
        {el(st, [1, 2, 3]), el(st, [3, 2, 1]), el(st, [2, 1, 3]), el(st, [1, 3, 2])}
    )
    assert sliding_circuit_set(x) == frozenset(
        {el(st, [2, 1, 3]), el(st, [1, 3, 2])}
    )


def test_sss_matches_scan_on_length_one_rows():
    """Every class of the n=4,5 statistics rows with i=0,1: the closure
    under minimal summit conjugators equals the scan over all simples."""
    for st in [artin_structure(4), artin_structure(5),
               bkl_structure(4), bkl_structure(5)]:
        for i in (0, 1):
            covered = set()
            for s in st.simples():
                if st.is_trivial(s) or st.is_delta(s):
                    continue
                x = multiply(delta_power(st, i), from_simple(st, s))
                if x in covered:
                    continue
                expected = frozenset(sss_with_witnesses(x))
                covered.update(expected)
                assert compute_sss(x) == expected


def test_sss_matches_scan_on_random_words():
    """Random classes of summit canonical length >= 2."""
    rng = random.Random(20261018)
    for st, letters, samples in [(artin_structure(5), 16, 4), (bkl_structure(4), 12, 6)]:
        checked = 0
        while checked < samples:
            x = random_element(st, rng, length=letters)
            if slide_to_circuit(x)[0].canonical_length < 2:
                continue
            assert compute_sss(x) == frozenset(sss_with_witnesses(x))
            checked += 1


def test_summit_conjugators_are_least_above_each_atom(rng):
    """rho_a(y) is the meet of every simple above a that keeps y in its
    super summit set."""
    for st in [artin_structure(4), bkl_structure(4)]:
        for _ in range(6):
            y = slide_to_circuit(random_element(st, rng, length=8))[0]
            y_inv = inverse(y)
            keep = [
                s for s in st.simples()
                if conjugate_simple(y, s).inf == y.inf
                and conjugate_simple(y, s).canonical_length == y.canonical_length
            ]
            for a in st.atoms:
                above = [s for s in keep if st.leq(a, s)]
                least = above[0]
                for s in above[1:]:
                    least = st.meet_simple(least, s)
                assert _summit_conjugator(y, y_inv, a) == least


def test_summit_conjugate_leaving_the_set_is_a_program_fault(monkeypatch):
    import garside.circuits

    st = artin_structure(4)
    monkeypatch.setattr(garside.circuits, "conjugate_simple",
                        lambda y, c: identity_element(st))
    with pytest.raises(VerificationError):
        compute_sss(el(st, [1, 2, 3]))


def test_sss_of_delta_powers():
    st = artin_structure(4)
    for k in range(-2, 3):
        assert compute_sss(delta_power(st, k)) == frozenset({delta_power(st, k)})
        assert sliding_circuit_set(delta_power(st, k)) == \
            frozenset({delta_power(st, k)})


def test_scg_matches_membership_filter_on_sss():
    """The graph exploration must find exactly the recurrent summit
    elements, with the summit set enumerated independently."""
    st = artin_structure(4)
    for seed in [el(st, [1, 2, 3]), el(st, [3, 2, 1, 2]), delta_seed(st),
                 el(st, [1, 2, 1, 3])]:
        sss = sss_with_witnesses(seed)
        expected = {y for y in sss if in_sc(y)}
        assert sliding_circuit_set(seed) == frozenset(expected)


def test_scg_invariants(rng):
    for st in [artin_structure(4), bkl_structure(4), artin_structure(5)]:
        for _ in range(12):
            x = random_element(st, rng)
            graph = compute_scg(x)
            wit_x = slide_witness(x)[1]
            assert graph.vertices
            index = {v: i for i, v in enumerate(graph.vertices)}
            out_degree = {v: 0 for v in graph.vertices}
            adjacency = {v: set() for v in graph.vertices}
            for a, c, b in graph.arrows:
                assert not st.is_trivial(c)
                assert conjugate_simple(a, c) == b
                out_degree[a] += 1
                adjacency[a].add(b)
                adjacency[b].add(a)
            for v in graph.vertices:
                assert in_sc(v)
                assert out_degree[v] >= 1
                assert out_degree[v] <= len(st.atoms)
                witness = multiply(wit_x, graph.conjugator_to(v))
                assert conjugate(x, witness) == v
            # undirected connectivity
            seen = {graph.vertices[0]}
            stack = [graph.vertices[0]]
            while stack:
                for w in adjacency[stack.pop()]:
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
            assert seen == set(graph.vertices)


def test_scg_parents_are_arrows_back_to_the_representative():
    """Each vertex's parent is an arrow of the graph into it, and following
    parents reaches the representative in fewer steps than there are
    vertices."""
    rng = random.Random(20261020)
    for st in [artin_structure(4), artin_structure(5), bkl_structure(4)]:
        for _ in range(8):
            x = random_element(st, rng, length=10)
            graph = compute_scg(x)
            rep = slide_to_circuit(x)[0]
            arrows = set(graph.arrows)
            assert set(graph.parent) == set(graph.vertices)
            assert graph.parent[rep] is None
            for z in graph.vertices:
                steps = 0
                while graph.parent[z] is not None:
                    y, s = graph.parent[z]
                    assert (y, s, z) in arrows
                    z = y
                    steps += 1
                    assert steps < len(graph.vertices)
                assert z == rep


def test_indecomposable_conjugators_against_brute_force():
    for st, seeds in [
        (artin_structure(3), [delta_power(artin_structure(3), 1),
                              el(artin_structure(3), [1])]),
        (artin_structure(4), [el(artin_structure(4), [2, 1, 3]),
                              el(artin_structure(4), [1, 3, 2]),
                              delta_seed(artin_structure(4))]),
    ]:
        for x in seeds:
            rep, _ = slide_to_circuit(x)
            member = _SCMembership(rep.inf, rep.canonical_length, Budgets())
            got = indecomposable_conjugators(rep, member)
            successes = [
                s for s in st.simples()
                if not st.is_trivial(s) and member(conjugate_simple(rep, s))
            ]
            minimal = [
                s for s in successes
                if not any(t != s and st.leq(t, s) for t in successes)
            ]
            assert sorted(got) == sorted(minimal)
            # distinct minimal conjugators have trivial meet
            for s in got:
                for t in got:
                    if s != t:
                        assert st.is_trivial(st.meet_simple(s, t))


def test_indecomposable_conjugators_match_scan_on_every_vertex(monkeypatch):
    """The pruned scan in norm order against the full scan over simples, on
    every vertex of the sliding circuits graphs of fixed-seed random classes
    and of the n-cycle seeds.  Every simple the pruned scan conjugates by is
    above rho_b for each atom b below it."""
    import garside.circuits

    rng = random.Random(20261018)
    classes = []
    for st, letters, samples in [(artin_structure(5), 16, 4),
                                 (bkl_structure(4), 12, 6),
                                 (bkl_structure(5), 12, 4)]:
        classes += [random_element(st, rng, length=letters) for _ in range(samples)]
    classes += [delta_seed(artin_structure(n)) for n in (4, 5, 6, 7)]
    scanned = []

    def recorded(y, s):
        scanned.append(s)
        return conjugate_simple(y, s)

    vertices = 0
    for x in classes:
        st = x.structure
        graph = compute_scg(x)
        rep = graph.vertices[0]
        member = _SCMembership(rep.inf, rep.canonical_length, Budgets())
        for y in graph.vertices:
            scanned.clear()
            with monkeypatch.context() as m:
                m.setattr(garside.circuits, "conjugate_simple", recorded)
                got = indecomposable_conjugators(y, member)
            assert got == scan_indecomposable_conjugators(y, member)
            y_inv = inverse(y)
            rhos = {a: _summit_conjugator(y, y_inv, a) for a in st.atoms}
            for s in scanned:
                assert all(st.leq(rhos[a], s) for a in st.atoms if st.leq(a, s))
        vertices += len(graph.vertices)
    assert vertices >= 100


def test_arrows_stay_inside_sc_b4():
    st = artin_structure(4)
    sc = {el(st, [2, 1, 3]), el(st, [1, 3, 2])}
    graph = compute_scg(el(st, [2, 1, 3]))
    assert set(graph.vertices) == sc
    for a, c, b in graph.arrows:
        assert a in sc and b in sc


def test_scg_vertex_counts():
    st4 = artin_structure(4)
    assert len(compute_scg(el(st4, [1, 2, 3])).vertices) == 2
    st5 = artin_structure(5)
    assert len(compute_scg(delta_seed(st5)).vertices) == 6
    for n in (3, 4, 5):
        st = artin_structure(n)
        assert len(compute_scg(delta_power(st, 1)).vertices) == 1


def test_periodic_seed_counts_small():
    for n in (4, 5, 6):
        st = artin_structure(n)
        d = delta_seed(st)
        assert len(compute_sss(d)) == 2 ** (n - 2)
        assert len(sliding_circuit_set(d)) == 2 ** (n - 2) - 2


def test_solver_b4():
    st = artin_structure(4)
    x, y = el(st, [1, 2, 3]), el(st, [2, 1, 3])
    assert solve_cdp(x, y)
    w = solve_csp(x, y)
    assert conjugate(x, w.conjugator) == y
    w = solve_csp(x, x)
    assert conjugate(x, w.conjugator) == x


def test_solver_distinguishes_classes():
    st = artin_structure(3)
    assert not solve_cdp(el(st, [1]), el(st, [1, 2]))
    assert solve_csp(el(st, [1]), el(st, [1, 2])) is None
    # all atoms are conjugate to each other
    st4 = artin_structure(4)
    assert solve_cdp(el(st4, [1]), el(st4, [3]))
    assert solve_cdp(el(st4, [1]), el(st4, [2]))
    # same summit invariants, different underlying permutation cycle type
    assert not solve_cdp(el(st4, [1, 3]), el(st4, [2, 1]))


def test_solver_random_conjugates(rng):
    for st in [artin_structure(4), bkl_structure(4)]:
        for _ in range(25):
            x = random_element(st, rng, length=rng.randint(0, 5))
            a = random_element(st, rng, length=rng.randint(0, 4))
            y = conjugate(x, a)
            w = solve_csp(x, y)
            assert w is not None
            assert conjugate(x, w.conjugator) == y


def test_solver_matches_full_graph_oracle():
    """On fixed-seed pairs, planted and independent, the solver that stops
    at y's circuit or a tau-image of it returns the conjugator of the
    full-graph solver."""
    rng = random.Random(20261018)
    for st, letters in [(artin_structure(4), 10), (artin_structure(5), 12),
                        (bkl_structure(4), 10), (bkl_structure(5), 10)]:
        for _ in range(6):
            x = random_element(st, rng, length=letters)
            y = conjugate(x, random_element(st, rng, length=letters // 2))
            w = solve_csp(x, y)
            assert w is not None
            assert w.conjugator == full_graph_conjugator(x, y)
            y = random_element(st, rng, length=letters)
            w = solve_csp(x, y)
            c = full_graph_conjugator(x, y)
            assert (w is None and c is None) or w.conjugator == c


def test_scg_walk_to_a_target_keeps_the_full_graph_witnesses(rng):
    """compute_scg with targets returns part of the full graph, holding the
    target with the witness the full graph gives it."""
    for st in [artin_structure(4), bkl_structure(4), artin_structure(5)]:
        for _ in range(6):
            x = random_element(st, rng, length=8)
            full = compute_scg(x)
            for v in full.vertices[:: max(1, len(full.vertices) // 3)]:
                part = compute_scg(x, targets={v})
                assert set(part.vertices) <= set(full.vertices)
                assert set(part.arrows) <= set(full.arrows)
                assert part.parent[v] == full.parent[v]
                assert part.conjugator_to(v) == full.conjugator_to(v)
            # a target outside the class leaves the graph whole
            outside = multiply(delta_power(st, 1), full.vertices[0])
            whole = compute_scg(x, targets={outside})
            assert (whole.vertices, whole.arrows) == (full.vertices, full.arrows)


def test_solver_hit_at_x_representative_searches_no_arrows(monkeypatch):
    """When y is a tau-image or a later circuit state of x's circuit
    representative, that representative is already a target: the solver
    answers with no arrow search."""
    import garside.circuits

    def no_arrows(*args):
        raise AssertionError("arrows searched")

    monkeypatch.setattr(garside.circuits, "indecomposable_conjugators", no_arrows)
    rng = random.Random(20261018)
    later = 0
    for st, letters in [(artin_structure(4), 10), (artin_structure(5), 12),
                        (bkl_structure(4), 10), (bkl_structure(6), 8)]:
        for _ in range(6):
            x = random_element(st, rng, length=letters)
            traj = sliding_trajectory(x)
            circuit = traj.states[traj.entry_index:]
            ys = [conjugate(circuit[0], delta_power(st, k))
                  for k in range(1, st.tau_order)] + list(circuit[1:])
            later += len(circuit) - 1
            for y in ys:
                w = solve_csp(x, y)
                assert conjugate(x, w.conjugator) == y
    assert later > 0


def test_solver_hit_is_the_first_target_found():
    """The vertex popped last can bring in several targets; the hit is the
    first of them found, not the least in sort order."""
    st = bkl_structure(5)
    x = parse_word(st, "a(5,4)^-1 a(4,1) a(3,1)^-1 a(3,1) a(4,2)^-1 a(4,1)")
    y = parse_word(st, "a(2,1)^-1 a(2,1) a(4,2)^-1 a(5,4)^-1 a(4,1) a(3,1)^-1 "
                       "a(3,1) a(4,2)^-1 a(4,1) a(4,2) a(2,1)^-1 a(2,1)")
    traj = sliding_trajectory(y)
    targets = {t for s in traj.states[traj.entry_index:] for t in _tau_orbit(s)}
    hits = [v for v in compute_scg(x, targets=targets).parent if v in targets]
    assert hits[0] != min(hits, key=GarsideElement.sort_key)
    assert solve_csp(x, y).conjugator == full_graph_conjugator(x, y)


def test_solver_walk_knows_no_more_vertices_than_a_walk_to_y_representative(
        monkeypatch):
    """On fixed-seed planted pairs the solver's walk stops no later than a
    walk to the circuit representative of y alone."""
    import garside.circuits

    walked = []

    def recorded(*args, **kwargs):
        graph = compute_scg(*args, **kwargs)
        walked.append(len(graph.vertices))
        return graph

    monkeypatch.setattr(garside.circuits, "compute_scg", recorded)
    rng = random.Random(20261019)
    shorter = 0
    for st, letters in [(artin_structure(5), 12), (bkl_structure(4), 10),
                        (bkl_structure(5), 10)]:
        for _ in range(8):
            x = random_element(st, rng, length=letters)
            y = conjugate(x, random_element(st, rng, length=letters // 2))
            walked.clear()
            assert solve_csp(x, y) is not None
            rep_y = slide_to_circuit(y)[0]
            to_rep = len(compute_scg(x, targets={rep_y}).vertices)
            assert walked[0] <= to_rep
            shorter += walked[0] < to_rep
    assert shorter > 0


def test_gcd_closure_of_sc_and_sss(rng):
    """Conjugators into the invariant sets are closed under meets (and,
    for the summit set, joins)."""
    count = 0
    for st in [artin_structure(4), bkl_structure(4), artin_structure(5)]:
        for _ in range(40):
            x = random_element(st, rng, length=rng.randint(0, 4))
            graph = compute_scg(x)
            wit_x = slide_witness(x)[1]
            sss = sss_with_witnesses(x)
            shift = delta_power(st, st.tau_order * rng.randint(-1, 1))
            verts = graph.vertices
            a = multiply(multiply(wit_x, graph.conjugator_to(rng.choice(verts))), shift)
            b = multiply(wit_x, graph.conjugator_to(rng.choice(verts)))
            assert in_sc(conjugate(x, a)) and in_sc(conjugate(x, b))
            assert in_sc(conjugate(x, meet(a, b)))
            members = sorted(sss, key=lambda v: v.sort_key())
            a = multiply(sss[rng.choice(members)], shift)
            b = sss[rng.choice(members)]
            assert in_sss(conjugate(x, meet(a, b)))
            assert in_sss(conjugate(x, join(a, b)))
            count += 1
    assert count >= 100


def rigid_normal_forms(st, p, length):
    """Every rigid Delta^p s_1 ... s_length in left normal form, in the
    order of st.simples() on each factor."""
    proper = [s for s in st.simples() if not st.is_trivial(s) and not st.is_delta(s)]
    out = []

    def extend(factors):
        if len(factors) == length:
            x = GarsideElement(st, p, tuple(factors))
            if is_rigid(x):
                out.append(x)
            return
        for b in proper:
            if factors and not st.is_trivial(st.meet_simple(st.complement(factors[-1]), b)):
                continue
            extend(factors + [b])

    extend([])
    return out


def test_rigid_classes_sc_is_rigid_conjugates_exhaustive_b4():
    """For a rigid seed, the sliding circuits are exactly the rigid
    conjugates; checked against the independently enumerated summit set."""
    st = artin_structure(4)
    seeds = rigid_normal_forms(st, 0, 2)
    assert seeds
    seen_classes = set()
    for x in seeds:
        sc = sliding_circuit_set(x)
        if sc in seen_classes:
            continue
        seen_classes.add(sc)
        sss = sss_with_witnesses(x)
        assert sc == frozenset(y for y in sss if is_rigid(y))
        assert all(in_sc(y) for y in sc)


def test_minimal_conjugator_example_b4():
    st = artin_structure(4)
    x = el(st, [3, 2, 1])
    c = minimal_sc_conjugator(x)
    assert c == el(st, [3])
    p = from_simple(st, preferred_prefix(x))
    assert p == el(st, [3, 2])
    assert prefix_leq(c, p) and c != p


def test_minimal_conjugator_trivial_on_members(rng):
    st = artin_structure(4)
    for seed in [el(st, [2, 1, 3]), el(st, [1, 3, 2]), delta_power(st, 1)]:
        assert minimal_sc_conjugator(seed) == identity_element(st)
    for _ in range(10):
        x = random_element(st, rng)
        rep, _ = slide_to_circuit(x)
        assert minimal_sc_conjugator(rep) == identity_element(st)
        assert minimal_sss_conjugator(rep) == identity_element(st)


def test_minimal_conjugator_on_rigid_classes_is_sliding(rng):
    """Toward a rigid circuit, iterated cyclic sliding gives the minimal
    positive conjugator, and minimal conjugators transport onto each other."""
    st = artin_structure(4)
    checked = 0
    for x in rigid_normal_forms(st, 0, 2)[:2]:
        for y in sorted(sss_with_witnesses(x), key=lambda v: v.sort_key()):
            c = minimal_sc_conjugator(y)
            # c(y) = P_i(y) once the trajectory has entered its circuit
            _, traj = slide_to_circuit(y)
            m = traj.entry_index
            for i in range(m, m + 3):
                assert prefix_product(y, i) == c
            # transport coherence along the trajectory
            z = y
            for k in range(1, 4):
                z = cyclic_sliding(z)
                assert iterated_transport(c, y, k) == minimal_sc_conjugator(z)
            checked += 1
    assert checked >= 4


def test_first_rigid_prefix_product_is_the_minimal_rigid_conjugator():
    """The paper's theorem: for a super summit x with rigid conjugates, and
    N the first step at which iterated sliding of x is rigid, P_N(x) is the
    minimal positive conjugator of x to a rigid element.  Checked against
    breadth-first search on every super summit element of every rigid
    class with summit inf 0 or 1 and canonical length 1 to 3 in classical
    B_3 and B_4 and dual B_4; the enumeration is exhaustive, so no seed."""
    checked = slid = 0
    for st in [artin_structure(3), artin_structure(4), bkl_structure(4)]:
        for p in (0, 1):
            for length in (1, 2, 3):

                def member(y):
                    return (y.inf, y.canonical_length) == (p, length) and is_rigid(y)

                covered = set()
                for seed in rigid_normal_forms(st, p, length):
                    if seed in covered:
                        continue
                    sss = compute_sss(seed)
                    covered |= sss
                    for x in sorted(sss, key=lambda v: v.sort_key()):
                        states = sliding_trajectory(x).states
                        n = next(i for i, z in enumerate(states) if is_rigid(z))
                        assert prefix_products(x, n)[n] == minimal_conjugator(x, member)
                        checked += 1
                        slid += n > 0
    assert checked == 992
    assert slid >= 100


def test_mu_bijection_counts_b4():
    st = artin_structure(4)
    for s in st.simples():
        if st.is_trivial(s) or st.is_delta(s):
            continue
        x = multiply(delta_power(st, 1), from_simple(st, s))
        y = from_simple(st, st.complement(s))
        assert len(compute_sss(x)) == len(compute_sss(y))
        assert len(sliding_circuit_set(x)) == len(sliding_circuit_set(y))


def test_membership_chain_on_length_one_classes_b4():
    from oracles import in_rsss, in_uss

    st = artin_structure(4)
    covered = set()
    for s in st.simples():
        if st.is_trivial(s) or st.is_delta(s):
            continue
        x = from_simple(st, s)
        if x in covered:
            continue
        sss = compute_sss(x)
        covered.update(sss)
        for y in sss:
            assert in_sss(y)
            if in_rsss(y):
                assert in_uss(y)
            if in_sc(y):
                assert in_rsss(y)
        # ell_s = 1 collapses the middle of the chain
        assert all(in_rsss(y) and in_uss(y) for y in sss)


def test_budget_exhaustion_is_loud():
    st = artin_structure(4)
    x = el(st, [1, 2, 3])
    with pytest.raises(BudgetExceeded):
        compute_scg(x, Budgets(max_vertices=1))
    with pytest.raises(BudgetExceeded):
        compute_sss(x, Budgets(max_set_size=2))
    bst = bkl_structure(5)
    with pytest.raises(BudgetExceeded):
        compute_sss(from_simple(bst, bst.atom(3, 1)), Budgets(max_set_size=2))
    # the scan over simples is refused before it enumerates them
    with pytest.raises(BudgetExceeded):
        compute_scg(x, Budgets(max_set_size=len(st.simples()) - 1))
    assert len(compute_scg(x, Budgets(max_set_size=len(st.simples()))).vertices) == 2
    with pytest.raises(BudgetExceeded):
        minimal_sc_conjugator(el(st, [3, 2, 1]), max_norm=0)


def symmetric_classes():
    """Fixed-seed classes of classical B_5 and dual B_4 and B_6, where tau
    has order 2, 4 and 6."""
    rng = random.Random(20261018)
    return [random_element(st, rng, length=letters)
            for st, letters, samples in [(artin_structure(5), 16, 3),
                                         (bkl_structure(4), 12, 3),
                                         (bkl_structure(6), 8, 3)]
            for _ in range(samples)]


def tau_orbits(elements):
    """The tau-orbits of a union of orbits, as frozensets, each checked
    against repeated conjugation by Delta."""
    orbits = set()
    for y in elements:
        orbit = _tau_orbit(y)
        delta = delta_power(y.structure, 1)
        assert [conjugate(w, delta) for w in orbit] == orbit[1:] + orbit[:1]
        assert len(set(orbit)) == len(orbit)
        orbits.add(frozenset(orbit))
    return orbits


def test_summit_conjugators_and_arrows_move_with_tau():
    """rho_tau(a)(tau(y)) = tau(rho_a(y)) for every atom, and the arrows at
    tau(y) are the sorted tau-images of the arrows at y, on every sliding
    circuit y of each class, with tau(y) = y^Delta computed by conjugation."""
    orbit_sizes = set()
    for x in symmetric_classes():
        st = x.structure
        delta = delta_power(st, 1)
        rep = slide_to_circuit(x)[0]
        member = _SCMembership(rep.inf, rep.canonical_length, Budgets())
        for y in sliding_circuit_set(x):
            ty = conjugate(y, delta)
            orbit_sizes.add(len(_tau_orbit(y)))
            y_inv, ty_inv = inverse(y), inverse(ty)
            for a in st.atoms:
                assert _summit_conjugator(ty, ty_inv, st.tau(a)) == \
                    st.tau(_summit_conjugator(y, y_inv, a))
            assert indecomposable_conjugators(ty, member) == \
                sorted(st.tau(c) for c in indecomposable_conjugators(y, member))
    assert orbit_sizes >= {2, 4, 6}


def test_scg_arrows_match_scan_at_every_vertex(monkeypatch):
    """The arrows compute_scg hands a vertex from a tau-conjugate are
    checked against the scan oracle, not against the search; the search
    runs once per tau-orbit of vertices, and the rho_a fixpoints of
    compute_sss once per tau-orbit of its elements."""
    import garside.circuits

    calls = {"arrows": 0, "rho": 0}

    def counted(name, f):
        def wrapper(*args):
            calls[name] += 1
            return f(*args)
        return wrapper

    monkeypatch.setattr(garside.circuits, "indecomposable_conjugators",
                        counted("arrows", indecomposable_conjugators))
    monkeypatch.setattr(garside.circuits, "_summit_conjugator",
                        counted("rho", _summit_conjugator))
    shared = 0
    for x in symmetric_classes():
        st = x.structure
        calls.update(arrows=0, rho=0)
        graph = compute_scg(x)
        orbits = tau_orbits(graph.vertices)
        assert calls["arrows"] == len(orbits)
        shared += len(graph.vertices) - len(orbits)
        rep = graph.vertices[0]
        member = _SCMembership(rep.inf, rep.canonical_length, Budgets())
        for v in graph.vertices:
            assert [c for y, c, _ in graph.arrows if y == v] == \
                scan_indecomposable_conjugators(v, member)
        calls["rho"] = 0
        sss = compute_sss(x)
        assert calls["rho"] == len(st.atoms) * len(tau_orbits(sss))
        assert sliding_circuits_in_sss(sss) == frozenset(graph.vertices)
    assert shared >= 100


def test_budgets_count_whole_orbits():
    """On a dual class whose sets are unions of orbits of size 6, a budget
    equal to the set's size passes and one less raises; a zero budget
    counts the representative."""
    st = bkl_structure(6)
    x = left_normal_form(st, [(st.atom(t, s), -1) for t, s in
                              ((5, 4), (6, 5), (6, 1), (3, 2), (4, 3), (3, 1))])
    sss = compute_sss(x)
    sc = compute_scg(x).vertices
    assert {len(o) for o in tau_orbits(sss)} == {6}
    assert (len(sss), len(sc)) == (60, 12)
    assert compute_sss(x, Budgets(max_set_size=len(sss))) == sss
    assert compute_scg(x, Budgets(max_vertices=len(sc))).vertices == sc
    with pytest.raises(BudgetExceeded):
        compute_sss(x, Budgets(max_set_size=len(sss) - 1))
    with pytest.raises(BudgetExceeded):
        compute_scg(x, Budgets(max_vertices=len(sc) - 1))
    for budgets in (Budgets(max_set_size=0), Budgets(max_set_size=5)):
        with pytest.raises(BudgetExceeded):
            compute_sss(x, budgets)
    with pytest.raises(BudgetExceeded):
        compute_scg(x, Budgets(max_vertices=0))
    # a set of one element fits a budget of one
    d = delta_power(st, 1)
    assert compute_sss(d, Budgets(max_set_size=1)) == frozenset({d})
    assert compute_scg(d, Budgets(max_vertices=1)).vertices == [d]


def test_conjugator_search_rejects_non_members():
    st = artin_structure(4)
    member = _SCMembership(0, 1, Budgets())
    with pytest.raises(VerificationError):
        indecomposable_conjugators(el(st, [1, 2, 3]), member)
