"""The sliding circuits graph, super summit sets, and the conjugacy
solver built on them.

SC(x), the set of sliding-circuit conjugates of x, is closed under
conjugation by gcds: whenever two positive elements both conjugate a
vertex back into the set, so does their meet.  Consequently the minimal
nontrivial conjugators at a vertex are simple, there are at most as many
of them as atoms, and the graph they span is finite and connected.

The solver slides both inputs onto circuits.  A circuit element is super
summit, so its inf and canonical length are the summit invariants of its
class; when those differ the answer is NO and no graph is built.
Otherwise the graph of x is walked, by `compute_scg` with targets, until
it meets the circuit of y or a tau-image of it.  SC(y) is a union of whole
circuits and closed under tau, so every such element is a vertex, and the
trajectory of y already gives a conjugator to each: a prefix product of
the slidings times a power of Delta.  Only a NO needs the whole graph.
The graph records the arrow that first reached each vertex; a YES composes
a conjugator along these for its hit alone, and checks it once.

The super summit set is closed the same way.  For each atom a, the least
simple c with a <= c keeping a summit element y in the set, rho_a(y), is
a least fixpoint of lattice operations on simples (Franco and
Gonzalez-Meneses), so the set is enumerated with one conjugation per atom
and vertex.

Arrows of the sliding circuits graph come from both facts.  The minimal
conjugator c_a above an atom a lies above rho_a, since sliding circuits are
super summit, and it is the first success above a in increasing length, by
the gcd-closure.  So the simples are scanned once in length order, skipping
those whose atoms all have their c_a and those not above rho_b (or c_b,
once found) for some atom b below them, and the scan stops once every atom
has its c_a.  The scan still grows with the number of simples; the paper's
transport and pullback along the circuit would replace it.

All of this commutes with conjugation by Delta.  Write tau(y) = y^Delta;
for y = Delta^p y_1 ... y_r it is Delta^p tau(y_1) ... tau(y_r), again in
normal form.  Sliding, the summit invariants and the lattice on simples
are preserved by tau, so SSS(x) and SC(x) are unions of tau-orbits, and
rho_tau(a)(tau(y)) = tau(rho_a(y)) (Franco and Gonzalez-Meneses); likewise
the arrows at tau(y) are tau of the arrows at y.  tau has order 2 on the
classical structure and n on the dual one.  So `compute_sss` takes in a
whole orbit at a time and runs the rho_a fixpoints at one element of it,
`compute_scg` searches the arrows once per orbit and hands the other
vertices of the orbit their twisted lists, and membership in SC is tested
once per orbit.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

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
from .sliding import slide_to_circuit, sliding_trajectory


def check_simples_budget(st: GarsideStructure, budgets: Budgets) -> None:
    """Refuse, before any enumeration, a structure with more simple
    elements than ``budgets.max_set_size``."""
    count = st.simple_count()
    if count > budgets.max_set_size:
        raise BudgetExceeded(
            f"{st.name} has {count} simple elements, more than the set budget "
            f"of {budgets.max_set_size}"
        )


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


class _SCMembership:
    """Memoized sliding-circuit membership for one conjugacy class.

    A cheap invariant filter (inf and canonical length of the target
    circuit) rejects most candidates before any trajectory is computed.
    """

    def __init__(self, inf_s: int, ell_s: int, budgets: Budgets) -> None:
        self.inf_s = inf_s
        self.ell_s = ell_s
        self.budgets = budgets
        self.cache: dict = {}

    def __call__(self, y: GarsideElement) -> bool:
        if y.inf != self.inf_s or y.canonical_length != self.ell_s:
            return False
        if y not in self.cache:
            traj = sliding_trajectory(y, self.budgets.max_trajectory_states)
            # every state on the found circuit is itself recurrent
            for i, s in enumerate(traj.states):
                self.cache[s] = i >= traj.entry_index
        return self.cache[y]


def indecomposable_conjugators(y: GarsideElement, member) -> list:
    """Minimal nontrivial simple conjugators keeping y inside the set
    recognized by `member`, which must be a part of the super summit set of
    y whose conjugators are closed under meets (the sliding circuits are).

    By meet-closure each atom a has a unique minimal success c_a above it,
    and every success above a lies above c_a, so c_a is the first success
    above a in increasing norm.  Since the set lies in the super summit set,
    c_a also lies above rho_a(y), the least simple above a keeping y there.
    The simples are scanned in norm order, skipping a simple s when every
    atom below s already has its c_a, or when some atom b <= s has its
    lower bound (c_b once found, rho_b before) not <= s; the scan stops
    once every atom has its c_a.  The result is the set of those c_a that
    are minimal overall, in the canonical order.
    """
    st = y.structure
    if not member(y):
        raise VerificationError("element is not in the set; conjugator search undefined")
    leq = st.leq
    y_inv = inverse(y)
    # low[i] is rho_i while bit i of todo is set, and c_i after
    low = [_summit_conjugator(y, y_inv, a) for a in st.atoms]
    todo = (1 << len(low)) - 1
    for s, mask, below in st.simples_by_norm():
        open_ = mask & todo
        if not open_ or not all(leq(low[i], s) for i in below):
            continue
        if member(conjugate_simple(y, s)):
            for i in below:
                if open_ >> i & 1:
                    low[i] = s
            todo &= ~open_
            if not todo:
                break
    found = [c for i, c in enumerate(low) if not todo >> i & 1]
    out = []
    for c in found:
        # c is minimal among successes above its atom; keep it only if no
        # success sits strictly below it (i.e. it is minimal overall)
        if all(c2 == c or not leq(c2, c) for c2 in found) and c not in out:
            out.append(c)
    out.sort()
    return out


@dataclass
class SlidingCircuitsGraph:
    """Vertices are the sliding-circuit conjugates of an element, sorted by
    `GarsideElement.sort_key`; arrows the indecomposable simple conjugators
    between them.  `parent` maps the vertices, in the order found, to the
    (y, s) of the arrow that first reached them, the representative to None."""

    vertices: list = field(default_factory=list)
    arrows: list = field(default_factory=list)  # (source, conjugator, target)
    parent: dict = field(default_factory=dict)

    def conjugator_to(self, v: GarsideElement) -> GarsideElement:
        """The product of the parent chain: a conjugator from the representative to v."""
        simples = []
        while self.parent[v] is not None:
            v, s = self.parent[v]
            simples.append((s, 1))
        return left_normal_form(v.structure, reversed(simples))


def compute_scg(
    x: GarsideElement,
    budgets: Budgets | None = None,
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
    popped; the other vertices of the orbit take its list twisted by tau^k
    and re-sorted when they are popped in turn.
    """
    budgets = budgets or Budgets()
    check_simples_budget(x.structure, budgets)
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
    graph = SlidingCircuitsGraph(parent={rep: None})
    parent = graph.parent
    # sort keys are unique per element, so the heap never compares elements
    frontier = [(rep.sort_key(), rep)]
    # arrows of vertices not yet popped, read off a tau-conjugate popped earlier
    twisted: dict = {}
    while frontier and parent.keys().isdisjoint(targets):
        _, y = heapq.heappop(frontier)
        arrows = twisted.pop(y, None)
        if arrows is None:
            arrows = indecomposable_conjugators(y, member)
            for k, w in enumerate(_tau_orbit(y)[1:], 1):
                twisted[w] = sorted(st.tau_pow(c, k) for c in arrows)
        for s in arrows:
            z = conjugate_simple(y, s)
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


@dataclass(frozen=True)
class ConjugatorWitness:
    source: GarsideElement
    target: GarsideElement
    conjugator: GarsideElement

    def __post_init__(self) -> None:
        if conjugate(self.source, self.conjugator) != self.target:
            raise VerificationError("witness does not conjugate source to target")


def solve_csp(
    x: GarsideElement, y: GarsideElement, budgets: Budgets | None = None
) -> ConjugatorWitness | None:
    """Conjugacy search: a verified witness c with x^c = y, or None.

    Different summit invariants answer None before any graph is built.
    Otherwise the targets are the circuit states s_j of y's trajectory and
    their tau-images tau^k(s_j) = y^(P_j Delta^k), P_j the j-th prefix
    product, each element keeping its first (j, k) with j, then k,
    increasing.  The graph of x is walked until it knows a target.  Only for
    the first one found, the hit, is a conjugator composed and checked:
    c = w_x g (P_j Delta^k)^-1, w_x the prefix product of x's trajectory
    that slides x to its circuit and g = `conjugator_to(hit)`.  None needs
    the whole graph under the vertex budget.
    """
    if x.structure is not y.structure:
        raise ValueError("elements over different structures")
    budgets = budgets or Budgets()
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
    return ConjugatorWitness(x, y, c)


def _summit_conjugator(y: GarsideElement, y_inv: GarsideElement, a):
    """rho_a(y): the least simple c with a <= c and y^c in the super
    summit set of y, for y in that set and y_inv = y^-1.

    For y = Delta^p y_1 ... y_r, inf(y^c) >= p iff tau^p(c) <= y_1...y_r c,
    iff (y_1...y_r) \\ tau^p(c) <= c, where u \\ t = u^-1 (u v t) is
    computed factor by factor.  The same condition on y^-1 keeps
    sup(y^c) <= sup(y).  Both lower bounds on c are monotone in c, so
    iterating c <- c v bounds from c = a reaches the least fixpoint.
    """
    st = y.structure
    c = a
    while True:
        nxt = c
        for z in (y, y_inv):
            t = st.tau_pow(c, z.p)
            for f in z.factors:
                t = st.lquot(f, st.join_simple(f, t))
            nxt = st.join_simple(nxt, t)
        if nxt == c:
            return c
        c = nxt


def compute_sss(x: GarsideElement, budgets: Budgets | None = None) -> frozenset:
    """The set of conjugates of minimal canonical length (and, among those,
    maximal infimum): closure of a summit representative under conjugation
    by the per-atom minimal conjugators rho_a.

    Every simple conjugator between two summit elements is a product of
    such minimal ones, so the closure is the whole set.  The set is a union
    of tau-orbits along which the rho_a move, so each element popped brings
    in its whole orbit, and the fixpoints run at that one element.
    """
    budgets = budgets or Budgets()
    rep, _ = slide_to_circuit(x, budgets.max_trajectory_states)
    st = x.structure
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
        y_inv = inverse(y)
        rhos = dict.fromkeys(_summit_conjugator(y, y_inv, a) for a in st.atoms)
        for c in rhos:
            z = conjugate_simple(y, c)
            if z.inf != inf_s or z.canonical_length != ell_s:
                raise VerificationError(
                    "a minimal summit conjugator left the super summit set"
                )
            if z not in known:
                frontier.append(z)
    return frozenset(known)


def sliding_circuits_in_sss(sss: frozenset, budgets: Budgets | None = None) -> frozenset:
    """The set of sliding circuits of a class, read off its super summit
    set: SC is the part of SSS on which iterated sliding returns."""
    budgets = budgets or Budgets()
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
