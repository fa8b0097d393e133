"""The sliding circuits graph, super summit sets, and the conjugacy
solver built on them.

SC(x), the set of sliding-circuit conjugates of x, is closed under
conjugation by gcds: whenever two positive elements both conjugate a
vertex back into the set, so does their meet.  Consequently the minimal
nontrivial conjugators at a vertex are simple, there are at most as many
of them as atoms, and the graph they span is finite and connected.

The solver first compares two class invariants read off the normal
forms, the exponent sum and the cycle type of the underlying permutation;
when they differ the answer is NO and nothing is slid.  Otherwise it
slides both inputs onto circuits.  A circuit element is super summit, so
its inf and canonical length are the summit invariants of its class; when
those differ the answer is NO and no graph is built.  Otherwise the graph
of x is walked, by `compute_scg` with targets, until it meets the circuit
of y or a tau-image of it.  SC(y) is a union of whole circuits and closed
under tau, so every such element is a vertex, and the trajectory of y
already gives a conjugator to each: a prefix product of the slidings times
a power of Delta.  Only a NO needs the whole graph.  The graph records the
arrow that first reached each vertex; a YES composes a conjugator along
these for its hit alone, shifts it by the central power of Delta that
makes its |inf| least, and checks it once.

The super summit set is closed the same way.  For each atom a, the least
simple c with a <= c keeping a summit element y in the set, rho_a(y), is
a least fixpoint of lattice operations on simples (Franco and
Gonzalez-Meneses).  Every simple conjugator keeping y in the set lies above
some rho_a, so the set is connected under the <=-minimal rho_a(y) alone,
and it is enumerated with one conjugation per minimal rho_a and vertex.
Only the minimal rho_a must be exact.  The fixpoints run atom by atom, and
one stops once its iterate lies above an atom b whose rho_b is known:
rho_b <= rho_a then, so rho_a either equals rho_b or is not minimal, and in
the second case the iterate joined with rho_b stays as a lower bound.

Arrows of the sliding circuits graph come from both facts.  The least
success c_a above an atom a lies above rho_a(y), since sliding circuits
are super summit, and above c_b for every atom b <= c_a, by meet-closure.
Call s closed when it lies above these bounds (rho_b until c_b is found,
c_b after) for every atom b <= s; joining s with the bounds below it until
it stops growing gives its closure.  If c < c_a is closed and t is the
first letter of c^-1 c_a, the closure of c t is still <= c_a.  So a search
in increasing norm from the closures of the rho_a, stepping from each
failure s to the closures of s t, meets c_a as its first success above a,
and it tests no simple that is not closed.  Only the atoms whose rho_a is
<=-minimal need a search, and it starts from the minimal rho alone: a
minimal c_a lies above rho_a, hence above an atom e with a minimal
rho_e <= rho_a, and e <= c_a gives c_e <= c_a, so c_e = c_a.  The bounds
of a fixpoint stopped early are below rho_a, so they are bounds on c_a
too, and no such bound is a minimal rho, so the open atoms stay the same.
Both walks take the rho_a bounds and the minimal rho from one helper, once
per vertex.  The paper's transport and pullback along the circuit stay a
citation.

All of this commutes with conjugation by Delta.  Write tau(y) = y^Delta;
for y = Delta^p y_1 ... y_r it is Delta^p tau(y_1) ... tau(y_r), again in
normal form.  Sliding, the summit invariants and the lattice on simples
are preserved by tau, so SSS(x) and SC(x) are unions of tau-orbits, and
rho_tau(a)(tau(y)) = tau(rho_a(y)) (Franco and Gonzalez-Meneses); likewise
the arrows at tau(y) are tau of the arrows at y.  tau has order 2 on the
classical structure and n on the dual one.  So `compute_sss` takes in a
whole orbit at a time and runs the rho_a fixpoints at one element of it,
`compute_scg` searches the arrows once per orbit and, as each other vertex
of the orbit is popped, hands it the list twisted, whose arrows carry the
twisted targets, and membership in SC is tested once per orbit.
"""

from __future__ import annotations

import heapq
from collections import namedtuple

from .core import (
    BudgetExceeded,
    Budgets,
    GarsideElement,
    GarsideStructure,
    VerificationError,
    conjugate,
    conjugate_simple,
    delta_power,
    inverse,
    left_normal_form,
    multiply,
)
from .sliding import _slide_until, slide_to_circuit


def _tau_orbit(y: GarsideElement) -> list:
    """The distinct elements y, tau(y), tau^2(y), ..., where
    tau(Delta^p y_1 ... y_r) = Delta^p tau(y_1) ... tau(y_r) is y^Delta."""
    st = y.structure
    orbit = [y]
    factors = y.factors
    while True:
        factors = tuple(st.tau(f) for f in factors)
        if factors == y.factors:
            return orbit
        orbit.append(GarsideElement(st, y.p, factors))


def _twist(z: GarsideElement, k: int) -> GarsideElement:
    """tau^k(z) = Delta^p tau^k(z_1) ... tau^k(z_r), again in normal form."""
    st = z.structure
    return GarsideElement(st, z.p, tuple(st.tau_pow(f, k) for f in z.factors))


class _SCMembership:
    """Memoized sliding-circuit membership for one conjugacy class.

    A cheap invariant filter (inf and canonical length of the target
    circuit) rejects most candidates before any sliding.  Otherwise the
    element is slid until a state repeats or is already cached.  A
    recurrent state is only ever cached together with its whole circuit,
    so a walk that runs into the cache has met no circuit of its own: every
    state on it is transient.  A walk that repeats has found its circuit,
    whose states are the recurrent ones.
    """

    def __init__(self, inf_s: int, ell_s: int, budgets: Budgets) -> None:
        self.inf_s = inf_s
        self.ell_s = ell_s
        self.budgets = budgets
        self.cache: dict = {}

    def __call__(self, y: GarsideElement) -> bool:
        if y.inf != self.inf_s or y.canonical_length != self.ell_s:
            return False
        cache = self.cache
        if y not in cache:
            index, _, last = _slide_until(y, cache, self.budgets.max_trajectory_states)
            # a walk that ran into the cache has no entry into a circuit
            entry = index.get(last, len(index))
            for s, i in index.items():
                cache[s] = i >= entry
        return cache[y]


def _minimal(st: GarsideStructure, simples: list) -> list:
    """The distinct <=-minimal simples of a list, in order of first appearance."""
    masks = {st.order_mask(c): c for c in simples}
    return [c for m, c in masks.items()
            if not any(m2 != m and not m2 & ~m for m2 in masks)]


def _summit_bounds(y: GarsideElement) -> tuple:
    """(low, rhos) for y in its super summit set, where rho_a(y) is the
    least simple c with a <= c and y^c in the set: rhos lists the distinct
    <=-minimal rho_a(y), in order of first appearance, and low maps the
    one-bit order mask of each atom a to a simple with a <= low <= rho_a(y),
    equal to rho_a(y) whenever that is minimal.

    For y = Delta^p y_1 ... y_r, inf(y^c) >= p iff tau^p(c) <= y_1...y_r c,
    iff (y_1...y_r) \\ tau^p(c) <= c, where u \\ t = u^-1 (u v t) is
    computed factor by factor.  The same condition on y^-1 keeps
    sup(y^c) <= sup(y).  Both lower bounds on c are monotone in c, so
    iterating c <- c v bounds from c = a reaches the least fixpoint.

    The atoms are taken in order, and a fixpoint stops as soon as its
    iterate lies above an atom b whose rho_b is already exact.  Then
    rho_b <= rho_a by meet-closure.  If a <= rho_b, rho_a = rho_b is exact;
    otherwise rho_a is not minimal, and the iterate joined with rho_b is
    kept as its bound.  Every atom with a minimal rho_a runs to the end or
    meets its equal, so rhos is `_minimal` of the exact values.  An inexact
    bound is no minimal rho: it lies above a and above rho_b, while any
    minimal rho above rho_b is rho_b, which does not lie above a.
    """
    st = y.structure
    order_mask = st._order_mask_cache.__getitem__  # the memo itself, with no method frame
    y_inv = inverse(y)
    low, done = {}, 0
    for a in st.atoms:
        bit = order_mask(a)
        c, nxt, hits = None, a, 0
        while nxt != c and not hits:
            c = nxt
            for z in (y, y_inv):
                t = st.tau_pow(c, z.p)
                for f in z.factors:
                    t = st.lquot(f, st.join_simple(f, t))
                nxt = st.join_simple(nxt, t)
                if hits := order_mask(nxt) & done:
                    break
        if nxt != c:
            # b <= rho_a, so rho_b <= rho_a, with equality iff a <= rho_b
            rho_b = low[hits & -hits]
            if not order_mask(rho_b) & bit:
                low[bit] = st.join_simple(nxt, rho_b)
                continue
            c = rho_b
        low[bit] = c
        done |= bit
    return low, _minimal(st, [c for b, c in low.items() if b & done])


def indecomposable_conjugators(
    y: GarsideElement, member, budgets: Budgets = Budgets()
) -> list:
    """Minimal nontrivial simple conjugators c keeping y inside the set
    recognized by `member`, which must be a part of the super summit set of
    y whose conjugators are closed under meets (the sliding circuits are),
    as (c, y^c) pairs sorted by c.

    Each atom a has a least success c_a above it.  Only the atoms whose
    rho_a(y) is <=-minimal among the rho's are open: if c_a is minimal
    overall and e is an atom with a minimal rho_e <= rho_a, then
    e <= rho_a <= c_a, so c_e <= c_a by meet-closure and c_e = c_a.  Their
    c_a are found by one search upward from the minimal rho in increasing
    (norm, simple) order over simples closed against every atom's bound
    (see the module docstring).  A popped simple with no open atom below it
    is dropped, one the bounds have outgrown is replaced by its closure, and
    otherwise y^s is tested: a success is c_a for every open atom a <= s, a
    failure pushes the closure of s t for each atom t with s t simple.  The
    simples pushed count against `budgets.max_set_size`.  The result is the
    set of those c_a that are minimal, each with the y^c_a its own
    membership test computed.
    """
    st = y.structure
    if not member(y):
        raise VerificationError("element is not in the set; conjugator search undefined")
    order_mask = st._order_mask_cache.__getitem__  # the memo itself, with no method frame
    # each atom's order mask is one bit; low[bit] is a lower bound for c_a
    # (rho_a, or below it where its fixpoint stopped early), or c_a once
    # found; todo holds the open atoms whose c_a is not found yet
    low, rhos = _summit_bounds(y)
    atoms = [(order_mask(a), a) for a in st.atoms]
    atom_bits = sum(low)
    todo = sum(b for b, c in low.items() if c in rhos)

    def close(s):
        m, checked = order_mask(s), 0
        while bits := m & atom_bits & ~checked:
            b = bits & -bits
            checked |= b
            if order_mask(low[b]) & ~m:
                s = st.join_simple(s, low[b])
                m = order_mask(s)
        return s

    heap, seen, found = [], set(), {}

    def push(s):
        s = close(s)
        if s not in seen:
            if len(seen) >= budgets.max_set_size:
                raise BudgetExceeded(
                    f"arrow search exceeded {budgets.max_set_size} simples")
            seen.add(s)
            heapq.heappush(heap, (st.norm(s), s))

    for c in rhos:
        push(c)
    while todo and heap:
        s = heapq.heappop(heap)[1]
        open_ = order_mask(s) & todo
        if not open_:
            continue
        if (c := close(s)) != s:
            push(c)
        elif member(z := conjugate_simple(y, s)):
            low.update({b: s for b in low if open_ & b})
            found[s] = z
            todo &= ~open_
        else:
            room = order_mask(st.complement(s))
            for b, t in atoms:
                if room & b:
                    push(st.prod(s, t))
    return sorted((c, found[c]) for c in _minimal(st, found))


class SlidingCircuitsGraph:
    """Vertices are the sliding-circuit conjugates of an element, sorted by
    `GarsideElement.sort_key`; arrows the indecomposable simple conjugators
    between them.  `parent` maps the vertices, in the order found, to the
    (y, s) of the arrow that first reached them, the representative to None."""

    def __init__(self, parent: dict) -> None:
        self.vertices: list = []
        self.arrows: list = []  # (source, conjugator, target)
        self.parent = parent

    def conjugator_to(self, v: GarsideElement) -> GarsideElement:
        """The product of the parent chain: a conjugator from the representative to v."""
        simples = []
        while self.parent[v] is not None:
            v, s = self.parent[v]
            simples.append((s, 1))
        return left_normal_form(v.structure, reversed(simples))


def compute_scg(
    x: GarsideElement,
    budgets: Budgets = Budgets(),
    targets=(),
    start: GarsideElement | None = None,
) -> SlidingCircuitsGraph:
    """Build the sliding circuits graph of the class of x.

    Seeds with the circuit representative of x, then closes under
    indecomposable conjugators, recording for each new vertex the arrow
    that found it in `parent`.  `start` is that representative when the
    caller has already slid x.

    With `targets`, a collection of elements, the walk stops popping the
    frontier once any of them is a known vertex, and the graph returned is
    the part built so far: the vertex popped last keeps all its arrows.
    Vertices are popped in the same order either way and a parent is set
    when its vertex is first found, so every parent equals the one of the
    full graph.  Without targets, or when none is in the graph, the graph
    is whole.

    The arrows are searched at the first vertex of each tau-orbit to be
    popped, and each carries the target its membership test computed; the
    other vertices of the orbit keep that list with their k, and twist it
    by tau^k, conjugators and targets alike, and re-sort it only when they
    are popped in turn.
    """
    if budgets.max_vertices < 1:
        # the representative is a vertex too
        raise BudgetExceeded(
            f"sliding circuits graph exceeded {budgets.max_vertices} vertices"
        )
    rep = start
    if rep is None:
        rep = slide_to_circuit(x, budgets.max_trajectory_states)[0]
    st = x.structure
    member = _SCMembership(rep.inf, rep.canonical_length, budgets)
    graph = SlidingCircuitsGraph({rep: None})
    parent = graph.parent
    # sort keys are unique per element, so the heap never compares elements
    frontier = [(rep.sort_key(), rep)]
    # (k, arrows at y) for each tau^k(y) not yet popped of a searched orbit
    searched: dict = {}
    while frontier and parent.keys().isdisjoint(targets):
        _, y = heapq.heappop(frontier)
        if y in searched:
            k, arrows = searched.pop(y)
            arrows = sorted((st.tau_pow(c, k), _twist(z, k)) for c, z in arrows)
        else:
            arrows = indecomposable_conjugators(y, member, budgets)
            for k, w in enumerate(_tau_orbit(y)[1:], 1):
                searched[w] = (k, arrows)
        for s, z in arrows:
            graph.arrows.append((y, s, z))
            if z not in parent:
                if len(parent) >= budgets.max_vertices:
                    raise BudgetExceeded(
                        f"sliding circuits graph exceeded {budgets.max_vertices} vertices"
                    )
                parent[z] = (y, s)
                heapq.heappush(frontier, (z.sort_key(), z))
    graph.vertices = sorted(parent, key=GarsideElement.sort_key)
    return graph


ConjugatorWitness = namedtuple("ConjugatorWitness", "source target conjugator")


def _class_invariants(x: GarsideElement) -> tuple:
    """(exponent sum, cycle type) of x = Delta^p x_1 ... x_r: its images
    under the abelianisation B_n -> Z and, up to conjugacy, under
    B_n -> S_n, so equal on conjugate elements.

    Every atom, a band generator too (a conjugate of sigma_1), has exponent
    sum 1, so a simple adds its norm.  The permutation is the product of
    those of Delta^p and of the factors; Delta^tau_order is a pure braid,
    so p counts mod tau_order there.  The cycle type is the sorted list of
    its cycle lengths.
    """
    st = x.structure
    exponent = x.p * st.norm_of_delta + sum(map(st.norm, x.factors))
    perm = st.to_perm(st.trivial)
    for s in (st.delta,) * (x.p % st.tau_order) + x.factors:
        q = st.to_perm(s)
        perm = [q[i - 1] for i in perm]
    seen = [False] * len(perm)
    cycles = []
    for start in range(len(perm)):
        length, i = 0, start
        while not seen[i]:
            seen[i] = True
            i = perm[i] - 1
            length += 1
        if length:
            cycles.append(length)
    return exponent, sorted(cycles)


def solve_csp(
    x: GarsideElement, y: GarsideElement, budgets: Budgets = Budgets()
) -> ConjugatorWitness | None:
    """Conjugacy search: a verified witness c with x^c = y, or None.

    The filters run cheapest first.  Different class invariants (exponent
    sum, cycle type of the permutation) answer None before either element
    is slid; then different summit invariants of the two circuit elements
    (inf, canonical length) answer None before any graph is built.
    Otherwise the targets are the circuit states s_j of y's trajectory and
    their tau-images tau^k(s_j) = y^(P_j Delta^k), P_j the j-th prefix
    product, each element keeping its first (j, k) with j, then k,
    increasing.  The graph of x is walked until it knows a target.  Only for
    the first one found, the hit, is a conjugator composed and checked:
    c = w_x g (P_j Delta^k)^-1, w_x the prefix product of x's trajectory
    that slides x to its circuit and g = `conjugator_to(hit)`, times the
    power Delta^(m e) that makes |inf(c)| least, the non-negative one of
    two.  Delta^e, e the order of tau, is central, so every such shift
    conjugates x to y, and x^c = y is checked before the witness is
    returned (VerificationError if not).  None from the walk needs the
    whole graph under the vertex budget.
    """
    if x.structure is not y.structure:
        raise ValueError("elements over different structures")
    if _class_invariants(x) != _class_invariants(y):
        return None
    rep_y, traj_y = slide_to_circuit(y, budgets.max_trajectory_states)
    rep_x, traj_x = slide_to_circuit(x, budgets.max_trajectory_states)
    if (rep_x.inf, rep_x.canonical_length) != (rep_y.inf, rep_y.canonical_length):
        return None
    targets: dict = {}
    for j in range(traj_y.entry_index, len(traj_y.states)):
        for k, t in enumerate(_tau_orbit(traj_y.states[j])):
            targets.setdefault(t, (j, k))
    graph = compute_scg(x, budgets, targets=targets, start=rep_x)
    hit = next((v for v in graph.parent if v in targets), None)
    if hit is None:
        return None
    j, k = targets[hit]
    wit_x = traj_x.prefix_product(traj_x.entry_index)
    to_hit = multiply(traj_y.prefix_product(j), delta_power(x.structure, k))
    c = multiply(multiply(wit_x, graph.conjugator_to(hit)), inverse(to_hit))
    e = x.structure.tau_order
    p = c.p % e
    if 2 * p > e:
        p -= e
    c = multiply(c, delta_power(x.structure, p - c.p))
    if conjugate(x, c) != y:
        raise VerificationError("witness does not conjugate source to target")
    return ConjugatorWitness(x, y, c)


def compute_sss(
    x: GarsideElement,
    budgets: Budgets = Budgets(),
    start: GarsideElement | None = None,
) -> frozenset:
    """The set of conjugates of minimal canonical length (and, among those,
    maximal infimum): closure of a summit representative under conjugation
    by the minimal summit conjugators.  `start` is that representative, a
    circuit element of the class, when the caller has already slid x.

    Any two elements of the set are joined by a chain of simple conjugators
    inside it (Franco and Gonzalez-Meneses).  A simple s keeping y in the
    set lies above rho_a(y) for each atom a <= s, so above some <=-minimal
    rho of {rho_a(y)}; y^rho is in the set, and rho^-1 s, of lower norm,
    takes it to y^s.  By induction on the norm, conjugation by the minimal
    rho alone reaches the whole set.  The set is a union of tau-orbits
    along which the rho_a move, so each element popped brings in its whole
    orbit, and the fixpoints run at that one element.
    """
    rep = start
    if rep is None:
        rep = slide_to_circuit(x, budgets.max_trajectory_states)[0]
    inf_s, ell_s = rep.inf, rep.canonical_length
    known: set = set()
    frontier = [rep]
    while frontier:
        y = frontier.pop()
        if y in known:
            continue
        for w in _tau_orbit(y):
            if len(known) >= budgets.max_set_size:
                raise BudgetExceeded(
                    f"summit set exceeded {budgets.max_set_size} elements"
                )
            known.add(w)
        for c in _summit_bounds(y)[1]:
            z = conjugate_simple(y, c)
            if z.inf != inf_s or z.canonical_length != ell_s:
                raise VerificationError(
                    "a minimal summit conjugator left the super summit set"
                )
            if z not in known:
                frontier.append(z)
    return frozenset(known)


def sliding_circuits_in_sss(sss: frozenset, budgets: Budgets = Budgets()) -> frozenset:
    """The set of sliding circuits of a class, read off its super summit
    set: SC is the part of SSS on which iterated sliding returns."""
    some = next(iter(sss))
    member = _SCMembership(some.inf, some.canonical_length, budgets)
    seen: set = set()
    sc: set = set()
    for y in sss:
        if y not in seen:
            orbit = _tau_orbit(y)
            seen.update(orbit)
            if member(y):
                sc.update(orbit)
    return frozenset(sc)
