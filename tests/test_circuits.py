"""Sliding circuits graph, summit sets, solver and conjugator oracles."""

import random

import pytest

from garside.artin import artin_structure
from garside.bkl import bkl_structure
from garside.circuits import (
    BudgetExceeded,
    Budgets,
    _SCMembership,
    _class_invariants,
    _summit_bounds,
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
    left_normal_form,
    multiply,
    power,
)
from garside.sliding import (
    _slide_until,
    is_rigid,
    preferred_prefix,
    slide_to_circuit,
    sliding_trajectory,
)
from garside.words import parse_word

from conftest import (
    full_graph_conjugator,
    random_element,
    random_word,
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
    summit_conjugators,
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


def test_sss_from_a_given_start_slides_nothing(monkeypatch):
    """With `start`, a circuit element of the class, compute_sss walks from
    it without sliding x again, and finds the same set."""
    import garside.circuits

    for x in [delta_seed(artin_structure(5)), el(artin_structure(4), [1, 2, 3])]:
        expected = compute_sss(x)
        rep = slide_to_circuit(x)[0]

        def refuse(*args):
            raise AssertionError("slid again")

        monkeypatch.setattr(garside.circuits, "slide_to_circuit", refuse)
        assert compute_sss(x, start=rep) == expected
        monkeypatch.undo()


def test_sss_matches_scan_on_length_one_rows():
    """Every class of the n=4,5 statistics rows with i=0,1: the closure
    under minimal summit conjugators equals the scan over all simples."""
    for st in [artin_structure(4), artin_structure(5),
               bkl_structure(4), bkl_structure(5)]:
        for i in (0, 1):
            covered = set()
            for s in st.simples():
                if s == st.trivial or s == st.delta:
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
    """The full fixpoints of `oracles.summit_conjugators(y)` map each atom
    a, by its order mask, to rho_a(y), the meet of every simple above a
    that keeps y in its super summit set, and both the oracle and
    `_summit_bounds(y)` list the distinct <=-minimal rho_a(y) in atom order
    of first appearance.  The samples include vertices with several
    minimal rho and with atoms that share one."""
    shapes = set()
    for st in [artin_structure(4), bkl_structure(4)]:
        for _ in range(6):
            y = slide_to_circuit(random_element(st, rng, length=8))[0]
            keep = [
                s for s in st.simples()
                if conjugate_simple(y, s).inf == y.inf
                and conjugate_simple(y, s).canonical_length == y.canonical_length
            ]
            least = {}
            for a in st.atoms:
                above = [s for s in keep if st.leq(a, s)]
                least[a] = above[0]
                for s in above[1:]:
                    least[a] = st.meet_simple(least[a], s)
            minimal = []
            for c in least.values():
                if c not in minimal and not any(
                        d != c and st.leq(d, c) for d in least.values()):
                    minimal.append(c)
            rho, oracle_minimal = summit_conjugators(y)
            assert rho == {st.order_mask[a]: least[a] for a in st.atoms}
            assert oracle_minimal == minimal
            assert _summit_bounds(y)[1] == minimal
            shared = sum(c in minimal for c in least.values()) > len(minimal)
            shapes.add((len(minimal) > 1, shared))
    assert shapes >= {(True, True), (True, False)}


def test_summit_bounds_match_full_fixpoints():
    """`_summit_bounds` against the full fixpoints of the oracle, at one
    element of every tau-orbit of the n = 4, 5 statistics rows with
    i = 0, 1, 2 in both structures, and at fixed-seed random summit elements
    of classical and dual B_4..B_6: circuit elements and their conjugates by
    the minimal rho.  The minimal rho agree, in the same order; each atom
    with a minimal rho_a has it exactly; every other atom a has a bound with
    a <= low[a] <= rho_a; the atoms whose bound is a minimal rho are exactly
    those whose rho_a is minimal.  Some fixpoints stop early."""
    elements = []
    for st in [artin_structure(4), artin_structure(5), bkl_structure(4), bkl_structure(5)]:
        for i in (0, 1, 2):
            seen = set()
            for s in st.simples():
                if s == st.trivial or s == st.delta:
                    continue
                y = multiply(delta_power(st, i), from_simple(st, s))
                if y not in seen:
                    seen.update(_tau_orbit(y))
                    elements.append(y)
    rng = random.Random(20261019)
    for n in (4, 5, 6):
        for st in [artin_structure(n), bkl_structure(n)]:
            for _ in range(20):
                y = slide_to_circuit(random_element(st, rng, length=3 * n))[0]
                elements.append(y)
                elements += [conjugate_simple(y, c) for c in summit_conjugators(y)[1]]
    stopped = 0
    for y in elements:
        st = y.structure
        rho, minimal = summit_conjugators(y)
        low, rhos = _summit_bounds(y)
        assert rhos == minimal
        assert low.keys() == rho.keys()
        for a in st.atoms:
            m = st.order_mask[a]
            if rho[m] in minimal:
                assert low[m] == rho[m]
            else:
                assert st.leq(a, low[m]) and st.leq(low[m], rho[m])
                assert low[m] not in rhos
            stopped += low[m] != rho[m]
    assert len(elements) >= 600 and stopped >= 30


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
                assert c != st.trivial
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
            got = [c for c, _ in indecomposable_conjugators(rep, member)]
            successes = [
                s for s in st.simples()
                if s != st.trivial and member(conjugate_simple(rep, s))
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
                        assert st.meet_simple(s, t) == st.trivial


def test_indecomposable_conjugators_match_scan_on_every_vertex(monkeypatch):
    """The closure search against the full scan over simples, on every
    vertex of the sliding circuits graphs of fixed-seed random classes and
    of the n-cycle seeds.  The search tests simples in increasing
    (norm, simple) order, and each is closed against the bounds known when
    it was tested: it lies above some open atom a, one whose rho_a is
    <=-minimal, whose c_a is not yet found, and above rho_b, or c_b once
    found, for every atom b below it.  It finds c_a for exactly the open
    atoms.  Each conjugator carries its target y^c, a member of the set."""
    import garside.circuits

    rng = random.Random(20261018)
    classes = []
    for st, letters, samples in [(artin_structure(5), 16, 4),
                                 (bkl_structure(4), 12, 6),
                                 (bkl_structure(5), 12, 4)]:
        classes += [random_element(st, rng, length=letters) for _ in range(samples)]
    classes += [delta_seed(artin_structure(n)) for n in (4, 5, 6, 7)]
    tested = []

    def recorded(y, s):
        tested.append(s)
        return conjugate_simple(y, s)

    vertices = 0
    for x in classes:
        st = x.structure
        graph = compute_scg(x)
        rep = graph.vertices[0]
        member = _SCMembership(rep.inf, rep.canonical_length, Budgets())
        for y in graph.vertices:
            tested.clear()
            with monkeypatch.context() as m:
                m.setattr(garside.circuits, "conjugate_simple", recorded)
                pairs = indecomposable_conjugators(y, member)
            got = [c for c, _ in pairs]
            assert got == scan_indecomposable_conjugators(y, member)
            for c, z in pairs:
                assert z == conjugate_simple(y, c) and member(z)
            keys = [(st.norm[s], s) for s in tested]
            assert keys == sorted(set(keys))
            bounds, rhos = _summit_bounds(y)
            low = {a: bounds[st.order_mask[a]] for a in st.atoms}
            open_atoms = {a for a in st.atoms if low[a] in rhos}
            found = set()
            for s in tested:
                below = [a for a in st.atoms if st.leq(a, s)]
                open_below = open_atoms.intersection(below)
                assert not found.issuperset(open_below)
                assert all(st.leq(low[b], s) for b in below)
                if member(conjugate_simple(y, s)):
                    for a in open_below - found:
                        low[a] = s
                    found.update(open_below)
            assert found == open_atoms and set(got) <= set(low.values())
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


def word_invariants(st, word):
    """Exponent sum and cycle type oracle, read letter by letter off a word
    of (simple, exponent) letters: a letter s^e adds e norm(s), and its
    permutation is that of s, inverted when e < 0, taken |e| times."""
    exponent = 0
    perm = list(range(1, st.n + 1))
    for s, e in word:
        exponent += e * st.norm[s]
        q = st.to_perm(s)
        if e < 0:
            q = [q.index(i) + 1 for i in range(1, st.n + 1)]
        for _ in range(abs(e)):
            perm = [q[i - 1] for i in perm]
    cycles = []
    rest = set(range(1, st.n + 1))
    while rest:
        i, length = min(rest), 0
        while i in rest:
            rest.remove(i)
            i, length = perm[i - 1], length + 1
        cycles.append(length)
    return exponent, sorted(cycles)


def test_class_invariants_are_class_functions():
    """The invariants read off the normal form equal those read off the
    word, and agree on x and x^c, for fixed-seed x and c over both
    structures and n = 3..7, with Delta^k letters for negative k and |k|
    above the order of tau."""
    rng = random.Random(20261019)
    for n in range(3, 8):
        for st in (artin_structure(n), bkl_structure(n)):
            e = st.tau_order
            for k in (-2 * e - 1, -e, -1, 0, 1, e + 1, 3 * e - 1):
                word = random_word(st, rng, 6) + [(st.delta, k)] + random_word(st, rng, 4)
                x = left_normal_form(st, word)
                inv = _class_invariants(x)
                assert inv == word_invariants(st, word)
                c = left_normal_form(
                    st, [(st.delta, -k - 1)] + random_word(st, rng, 5))
                assert _class_invariants(conjugate(x, c)) == inv


def test_class_invariants_never_refuse_a_conjugate():
    """On fixed-seed independent pairs, whenever the invariants differ, the
    whole sliding circuits graph of x holds no state of y's circuit: the
    early NO is the one the graph gives."""
    rng = random.Random(20261020)
    differ = 0
    for st, letters in [(artin_structure(4), 10), (artin_structure(5), 12),
                        (bkl_structure(4), 10), (bkl_structure(5), 10)]:
        for _ in range(8):
            x = random_element(st, rng, length=letters)
            y = random_element(st, rng, length=letters)
            if _class_invariants(x) == _class_invariants(y):
                continue
            differ += 1
            traj = sliding_trajectory(y)
            vertices = set(compute_scg(x).vertices)
            assert vertices.isdisjoint(traj.states[traj.entry_index:])
    assert differ >= 20


def test_solver_no_from_class_invariants_slides_nothing(monkeypatch):
    """Pairs that differ in exponent sum or in cycle type are answered
    before either element is slid; a pair with equal class invariants
    still slides both and walks x's graph."""
    import garside.circuits

    calls = []

    def counted(f):
        def wrapper(*args, **kwargs):
            calls.append(f.__name__)
            return f(*args, **kwargs)
        return wrapper

    for name in ("slide_to_circuit", "compute_scg"):
        monkeypatch.setattr(garside.circuits, name, counted(getattr(garside.circuits, name)))
    st = artin_structure(4)
    # exponent sums 3 and 2; then equal sums, cycle types (2, 2) and (1, 3)
    for a, b in (("s1 s2 s3", "s1 s2"), ("s1 s3", "s2 s1")):
        calls.clear()
        assert solve_csp(parse_word(st, a), parse_word(st, b)) is None
        assert calls == []
    # equal class and summit invariants, not conjugate
    x, y = parse_word(st, "s1 s1 s3^-1"), parse_word(st, "s1 s1 s2^-1")
    assert _class_invariants(x) == _class_invariants(y)
    calls.clear()
    assert solve_csp(x, y) is None
    assert sorted(calls) == ["compute_scg", "slide_to_circuit", "slide_to_circuit"]


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
    proper = [s for s in st.simples() if s != st.trivial and s != st.delta]
    out = []

    def extend(factors):
        if len(factors) == length:
            x = GarsideElement(st, p, tuple(factors))
            if is_rigid(x):
                out.append(x)
            return
        for b in proper:
            if factors and st.meet_simple(st.complement(factors[-1]), b) != st.trivial:
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
                        traj = sliding_trajectory(x)
                        n = next(i for i, z in enumerate(traj.states) if is_rigid(z))
                        assert traj.prefix_product(n) == minimal_conjugator(x, member)
                        checked += 1
                        slid += n > 0
    assert checked == 992
    assert slid >= 100


def test_mu_bijection_counts_b4():
    st = artin_structure(4)
    for s in st.simples():
        if s == st.trivial or s == st.delta:
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
        if s == st.trivial or s == st.delta:
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


def test_membership_early_stop_matches_full_trajectories(monkeypatch):
    """_SCMembership stops sliding at the first state it has already
    judged; on every super summit element of fixed-seed random classes of
    both structures and of the n-cycle seeds, queried in several shuffled
    orders, it agrees with recurrence read off the full trajectory."""
    import garside.circuits

    stops = {"cached": 0, "repeat": 0}

    def counted(y, known, max_states):
        index, prefixes, last = _slide_until(y, known, max_states)
        stops["repeat" if last in index else "cached"] += 1
        return index, prefixes, last

    monkeypatch.setattr(garside.circuits, "_slide_until", counted)
    rng = random.Random(20261019)
    classes = [delta_seed(artin_structure(n)) for n in (4, 5, 6, 7)]
    for st, letters, samples in [(artin_structure(5), 16, 4), (bkl_structure(4), 12, 4),
                                 (bkl_structure(6), 8, 3)]:
        classes += [random_element(st, rng, length=letters) for _ in range(samples)]
    for x in classes:
        sss = sorted(compute_sss(x), key=GarsideElement.sort_key)
        expected = {y: in_sc(y) for y in sss}
        assert any(expected.values())
        rep = slide_to_circuit(x)[0]
        for _ in range(3):
            rng.shuffle(sss)
            member = _SCMembership(rep.inf, rep.canonical_length, Budgets())
            assert [member(y) for y in sss] == [expected[y] for y in sss]
    assert stops["cached"] > 0 and stops["repeat"] > 0


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
    # the arrow search counts the simples it pushes against the set budget:
    # 7 of the 24 at the busiest vertex of this class
    with pytest.raises(BudgetExceeded):
        compute_scg(x, Budgets(max_set_size=6))
    assert len(compute_scg(x, Budgets(max_set_size=7)).vertices) == 2
    assert len(compute_scg(x).vertices) == 2
    with pytest.raises(BudgetExceeded):
        minimal_sc_conjugator(el(st, [3, 2, 1]), max_norm=0)
    # the library's default argument: a value that refuses assignment and
    # hashes
    with pytest.raises(AttributeError):
        Budgets().max_vertices = 1
    assert hash(Budgets()) == hash(Budgets(100_000, 10**6, 10**6))


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
    """rho_tau(a)(tau(y)) = tau(rho_a(y)) for every atom, by the full
    fixpoints of the oracle, the minimal rho of `_summit_bounds` at tau(y)
    are the tau-images of those at y, and the arrows at tau(y) are the
    sorted tau-images of the arrows at y, on every sliding circuit y of each
    class, with tau(y) = y^Delta computed by conjugation."""
    orbit_sizes = set()
    for x in symmetric_classes():
        st = x.structure
        delta = delta_power(st, 1)
        rep = slide_to_circuit(x)[0]
        member = _SCMembership(rep.inf, rep.canonical_length, Budgets())
        for y in sliding_circuit_set(x):
            ty = conjugate(y, delta)
            orbit_sizes.add(len(_tau_orbit(y)))
            rho, ty_rho = summit_conjugators(y)[0], summit_conjugators(ty)[0]
            for a in st.atoms:
                assert ty_rho[st.order_mask[st.tau[a]]] == \
                    st.tau[rho[st.order_mask[a]]]
            assert set(_summit_bounds(ty)[1]) == {st.tau[c] for c in _summit_bounds(y)[1]}
            assert [c for c, _ in indecomposable_conjugators(ty, member)] == \
                sorted(st.tau[c] for c, _ in indecomposable_conjugators(y, member))
    assert orbit_sizes >= {2, 4, 6}


def test_scg_arrows_match_scan_at_every_vertex(monkeypatch):
    """The arrows compute_scg hands a vertex from a tau-conjugate are
    checked against the scan oracle, not against the search, and each
    target, carried or twisted, against a fresh conjugation; the search
    runs once per tau-orbit of vertices, and the rho_a fixpoints, all atoms
    at once, once per searched orbit and, in compute_sss, once per tau-orbit
    of its elements."""
    import garside.circuits

    calls = {"arrows": 0, "rho": 0}

    def counted(name, f):
        def wrapper(*args):
            calls[name] += 1
            return f(*args)
        return wrapper

    monkeypatch.setattr(garside.circuits, "indecomposable_conjugators",
                        counted("arrows", indecomposable_conjugators))
    monkeypatch.setattr(garside.circuits, "_summit_bounds",
                        counted("rho", _summit_bounds))
    shared = 0
    for x in symmetric_classes():
        calls.update(arrows=0, rho=0)
        graph = compute_scg(x)
        orbits = tau_orbits(graph.vertices)
        assert calls["arrows"] == calls["rho"] == len(orbits)
        shared += len(graph.vertices) - len(orbits)
        rep = graph.vertices[0]
        member = _SCMembership(rep.inf, rep.canonical_length, Budgets())
        for v in graph.vertices:
            assert [c for y, c, _ in graph.arrows if y == v] == \
                scan_indecomposable_conjugators(v, member)
        for y, c, z in graph.arrows:
            assert z == conjugate_simple(y, c) and member(z)
        calls["rho"] = 0
        sss = compute_sss(x)
        assert calls["rho"] == len(tau_orbits(sss))
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
