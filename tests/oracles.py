"""Desk-scale oracles that no command calls: minimal conjugators into the
invariant sets by breadth-first search, the conjugacy decision, the
inversion count, the prefix order and the blockwise meet on simples by
loops, the greedy lattice operations on elements, cyclic sliding one step
at a time, the reverse structure with the right-handed variants of
sliding and transport, cycling and decycling, the membership tests for
the invariant subsets of a class, simples from words and back by
rescanning, the dual conversions by block lists with relabelling by first
occurrence and the pairwise crossing test, tau^k in closed form,
non-crossing partitions by filtering all set partitions, and the minimal
summit conjugators rho_a with every fixpoint run to its end, and the
argparse tree the CLI's table-driven argv reader replaced."""

import argparse
import functools

from garside.bkl import BKLStructure, _band_index, blocks_of
from garside.circuits import BudgetExceeded, Budgets, compute_scg, solve_csp
from garside.core import (
    GarsideElement,
    GarsideStructure,
    VerificationError,
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
    initial_factor,
    preferred_prefix,
    slide_to_circuit,
    sliding_trajectory,
)

MAX_NORM = 20


# -- sliding step by step ------------------------------------------------------

def cyclic_sliding(x: GarsideElement) -> GarsideElement:
    """s(x) = conjugate of x by its preferred prefix: one step of
    sliding_trajectory."""
    return conjugate_simple(x, preferred_prefix(x))


def slide_witness(x: GarsideElement):
    """(representative, witness): the first recurrent state of x's
    trajectory and the prefix product that conjugates x to it."""
    rep, traj = slide_to_circuit(x)
    return rep, traj.prefix_product(traj.entry_index)


# -- the prefix order on simples, by loops over the encodings -----------------

def inversions(a: tuple) -> int:
    """Classical norm: the number of inversions of the permutation a."""
    n = len(a)
    return sum(1 for i in range(n) for j in range(i + 1, n) if a[i] > a[j])


def inversion_leq(a: tuple, b: tuple) -> bool:
    """Classical prefix order: every inversion of the permutation a is
    one of b."""
    n = len(a)
    for i in range(n):
        for j in range(i + 1, n):
            if a[i] > a[j] and b[i] < b[j]:
                return False
    return True


def refinement_leq(a: tuple, b: tuple) -> bool:
    """Dual prefix order: every block of the partition a lies inside a
    block of b."""
    image: dict = {}
    for la, lb in zip(a, b):
        if la in image:
            if image[la] != lb:
                return False
        else:
            image[la] = lb
    return True


def blockwise_meet(n: int, a: tuple, b: tuple) -> tuple:
    """Dual meet: the blockwise meet, labelled by first occurrence in one
    pass; both arguments carry canonical labels below n, so x * n + y keys
    a pair."""
    seen: dict = {}
    return tuple([seen.setdefault(x * n + y, len(seen)) for x, y in zip(a, b)])


# -- right-handed simple operations and the reverse structure -----------------

def suffix_leq(st: GarsideStructure, a, b) -> bool:
    """True iff a is a suffix of b, i.e. b >= a."""
    # b >= a  iff  partial^-1(b) <= partial^-1(a)
    return st.leq(st.complement_inv(b), st.complement_inv(a))


def right_meet_simple(st: GarsideStructure, a, b):
    """Greatest common suffix of two simples.

    Greedy: extend a common suffix u on the left by atoms while it stays
    a suffix of both arguments.  Any common suffix strictly below the
    gcd admits such an atom extension, so the loop cannot stall early.
    """
    u = st.trivial
    changed = True
    while changed:
        changed = False
        for t in st.atoms:
            if not st.leq(u, st.complement(t)):
                continue
            v = st.prod(t, u)
            if suffix_leq(st, v, a) and suffix_leq(st, v, b):
                u = v
                changed = True
    return u


class ReverseStructure(GarsideStructure):
    """The reverse Garside structure (G, P^-1, Delta^-1) of a base structure.

    A simple element of the reverse structure is the inverse of a simple
    element of the base structure; we reuse the base encoding, so the value
    s here stands for the group element s^-1.  All operations are derived
    from the base structure through that identification.
    """

    def __init__(self, base: GarsideStructure) -> None:
        super().__init__()
        self.base = base
        self.name = base.name + "-reverse"
        self.atoms = base.atoms
        self.delta = base.delta
        self.trivial = base.trivial
        self.norm_of_delta = base.norm_of_delta
        self.tau_order = base.tau_order

    def leq(self, a, b) -> bool:
        # a^-1 <= b^-1 over P^-1 iff a b^-1 in P^-1 iff b a^-1 in P,
        # i.e. b >= a in the base structure.
        return suffix_leq(self.base, a, b)

    def meet_simple(self, a, b):
        return right_meet_simple(self.base, a, b)

    def _complement(self, s):
        # (s^-1)^-1 Delta^-1 = s Delta^-1 = (Delta s^-1)^-1
        return self.base.complement_inv(s)

    def _complement_inv(self, s):
        return self.base.complement(s)

    def prod(self, a, b):
        # a^-1 b^-1 = (b a)^-1
        return self.base.prod(b, a)

    def lquot(self, s, b):
        # (s^-1)^-1 b^-1 = s b^-1 = (b s^-1)^-1, and with b = u s,
        # b s^-1 = u = partial^-1(s partial(b)) since s b^-1 Delta = u^-1 Delta
        base = self.base
        return base.complement_inv(base.prod(s, base.complement(b)))

    def _norm(self, s) -> int:
        return self.base.norm(s)

    def simples(self) -> tuple:
        return self.base.simples()

    def simple_count(self) -> int:
        return self.base.simple_count()


def reverse_rewrite(x: GarsideElement, target: GarsideStructure) -> GarsideElement:
    """Rewrite x over target, where one of x.structure and target is the
    :class:`ReverseStructure` of the other.

    Each letter g is expressed through letters of the other structure:
    g = (g^-1)^-1, and g^-1 is encoded there by the same simple value.  The
    mapping is an involution on words, so it serves both directions.
    """
    st = x.structure
    if not (isinstance(target, ReverseStructure) and target.base is st
            or isinstance(st, ReverseStructure) and st.base is target):
        raise ValueError("the structures are not reverses of one another")
    # Delta^p over st is (target's Delta)^-p
    word = [(target.delta, -x.p)] + [(f, -1) for f in x.factors]
    return left_normal_form(target, word)


# -- greedy lattice operations on elements --------------------------------------

def prefix_leq(a: GarsideElement, b: GarsideElement) -> bool:
    """a <= b in the prefix order, i.e. a^-1 b positive."""
    return multiply(inverse(a), b).p >= 0


def suffix_geq(a: GarsideElement, b: GarsideElement) -> bool:
    """a >= b in the suffix order, i.e. a b^-1 positive."""
    return multiply(a, inverse(b)).p >= 0


def meet(a: GarsideElement, b: GarsideElement) -> GarsideElement:
    """Greatest common prefix of a and b.

    Greedy atom extension from Delta^min(inf a, inf b); a common prefix
    strictly below the gcd always extends by some atom toward it.
    """
    st = a.structure
    u = delta_power(st, min(a.p, b.p))
    changed = True
    while changed:
        changed = False
        for t in st.atoms:
            v = multiply(u, from_simple(st, t))
            if prefix_leq(v, a) and prefix_leq(v, b):
                u = v
                changed = True
    return u


def right_meet(a: GarsideElement, b: GarsideElement) -> GarsideElement:
    """Greatest common suffix of a and b (the gcd for the >= order)."""
    st = a.structure
    u = delta_power(st, min(a.p, b.p))
    changed = True
    while changed:
        changed = False
        for t in st.atoms:
            v = multiply(from_simple(st, t), u)
            if suffix_geq(a, v) and suffix_geq(b, v):
                u = v
                changed = True
    return u


def join(a: GarsideElement, b: GarsideElement) -> GarsideElement:
    """Least common multiple for the prefix order: a v b = (a^-1 /\\' b^-1)^-1
    where /\\' is the right meet."""
    return inverse(right_meet(inverse(a), inverse(b)))


def right_join(a: GarsideElement, b: GarsideElement) -> GarsideElement:
    """Least common multiple for the suffix order: (a^-1 /\\ b^-1)^-1."""
    return inverse(meet(inverse(a), inverse(b)))


# -- cycling, decycling, right sliding and transport ----------------------------

def cycling(x: GarsideElement) -> GarsideElement:
    """c(x) = x conjugated by iota(x); x itself when the canonical length
    is zero (conjugation by Delta powers is trivial modulo tau)."""
    if not x.factors:
        return x
    return conjugate_simple(x, initial_factor(x))


def decycling(x: GarsideElement) -> GarsideElement:
    """d(x) = x conjugated by phi(x)^-1; x itself at canonical length 0."""
    if not x.factors:
        return x
    st = x.structure
    xr = x.factors[-1]
    # x^(x_r^-1) = x_r x x_r^-1 = Delta^p tau^p(x_r) x_1 ... x_{r-1}
    word = [(st.tau_pow(xr, x.p), 1)] + [(f, 1) for f in x.factors[:-1]]
    y = left_normal_form(st, word)
    return GarsideElement(st, y.p + x.p, y.factors)


def preferred_suffix(x: GarsideElement):
    """The right-order analogue of the preferred prefix:
    (Delta^{-inf} x) /\\' (Delta^{sup} x^-1) /\\' Delta, where /\\' is the
    greatest common suffix."""
    st = x.structure
    if not x.factors:
        return st.trivial
    a = multiply(delta_power(st, -x.inf), x)
    b = multiply(delta_power(st, x.sup), inverse(x))
    r = right_meet(right_meet(a, b), delta_power(st, 1))
    if r.p == 1:
        return st.delta
    if r.p != 0 or len(r.factors) > 1:
        raise VerificationError("preferred suffix is not a simple element")
    return r.factors[0] if r.factors else st.trivial


def cyclic_right_sliding(x: GarsideElement) -> GarsideElement:
    """Conjugate of x by the inverse of its preferred suffix."""
    st = x.structure
    s = preferred_suffix(x)
    return conjugate(x, inverse(from_simple(st, s)))


def transport(alpha: GarsideElement, x: GarsideElement) -> GarsideElement:
    """Image of a conjugator alpha at x under one cyclic sliding:
    p(x)^-1 alpha p(x^alpha)."""
    st = x.structure
    px = from_simple(st, preferred_prefix(x))
    pxa = from_simple(st, preferred_prefix(conjugate(x, alpha)))
    return multiply(multiply(inverse(px), alpha), pxa)


def iterated_transport(alpha: GarsideElement, x: GarsideElement, i: int) -> GarsideElement:
    """alpha^(i): transport repeated along the sliding trajectory of x."""
    for _ in range(i):
        alpha = transport(alpha, x)
        x = cyclic_sliding(x)
    return alpha


def right_transport(alpha: GarsideElement, x: GarsideElement) -> GarsideElement:
    """Right-sliding analogue: p'(x^(alpha^-1)) alpha p'(x)^-1 where p' is
    the preferred suffix."""
    st = x.structure
    y = conjugate(x, inverse(alpha))
    left = from_simple(st, preferred_suffix(y))
    right = inverse(from_simple(st, preferred_suffix(x)))
    return multiply(multiply(left, alpha), right)


def prefix_product(x: GarsideElement, i: int) -> GarsideElement:
    """P_i(x) without precomputing a full trajectory."""
    st = x.structure
    out = identity_element(st)
    for _ in range(i):
        s = preferred_prefix(x)
        out = multiply(out, from_simple(st, s))
        x = conjugate_simple(x, s)
    return out


# -- membership in the invariant subsets of a class -----------------------------

def in_sc(x: GarsideElement, max_states: int = 10**6) -> bool:
    """x lies on a sliding circuit iff iterated sliding returns to x."""
    traj = sliding_trajectory(x, max_states)
    return traj.entry_index == 0


def in_sss(x: GarsideElement, max_states: int = 10**6) -> bool:
    """x has the summit inf and sup of its class, those of its circuit."""
    rep, _ = slide_to_circuit(x, max_states)
    return x.inf == rep.inf and x.sup == rep.sup


def _returns(x: GarsideElement, step, max_states: int) -> bool:
    """Does iterating step from x come back to x?  The orbit may hold at
    most max_states states, as for a sliding trajectory."""
    seen = {x}
    cur = step(x)
    while cur not in seen:
        if len(seen) >= max_states:
            raise BudgetExceeded(
                f"orbit exceeded {max_states} states from {x!r}"
            )
        seen.add(cur)
        cur = step(cur)
    return cur == x


def in_uss(x: GarsideElement, max_states: int = 10**6) -> bool:
    """x is super summit and recurrent under cycling."""
    return in_sss(x, max_states) and _returns(x, cycling, max_states)


def in_rsss(x: GarsideElement, max_states: int = 10**6) -> bool:
    """x is super summit and recurrent under both cycling and decycling."""
    return (
        in_sss(x, max_states)
        and _returns(x, cycling, max_states)
        and _returns(x, decycling, max_states)
    )


def sliding_circuit_set(x: GarsideElement, budgets: Budgets = Budgets()) -> frozenset:
    """The vertices of the sliding circuits graph of x, as a set."""
    return frozenset(compute_scg(x, budgets).vertices)


# -- simple elements: from words, and by filtering ----------------------------

def word_to_simple(st, word) -> tuple:
    """Product of atoms sigma_k for k in word, as a permutation, over a
    classical structure.

    No check that the word is reduced; callers wanting a simple braid
    must pass a reduced word.
    """
    s = st.trivial
    for k in word:
        s = st.prod(s, st.atom(k))
    return s


def rescanning_simple_to_word(st, s) -> list:
    """Canonical reduced word of a permutation braid over a classical
    structure: peel the smallest applicable sigma_k off the right end,
    rescanning from sigma_1 after every letter, norm(s) scans in all."""
    n = st.n
    cur = list(s)
    pos = [0] * n
    for i, v in enumerate(cur):
        pos[v - 1] = i
    out: list = []
    remaining = st.norm(s)
    while remaining:
        for k in range(1, n):
            i, j = pos[k], pos[k - 1]  # positions of k+1 and k
            if i < j:
                cur[i], cur[j] = cur[j], cur[i]
                pos[k], pos[k - 1] = j, i
                out.append(k)
                remaining -= 1
                break
    out.reverse()
    return out


# -- the dual conversions by block lists -------------------------------------

def canonical_labels(raw) -> tuple:
    """Relabel an arbitrary label sequence by first occurrence."""
    seen: dict = {}
    return tuple([seen.setdefault(v, len(seen)) for v in raw])


def crossing_pair(labels):
    """Labels of two crossing blocks, or None, by comparing every pair of
    arcs, an arc joining consecutive elements of a block: if a < b < c < d
    with a, c in X and b, d in Y, then b lies between consecutive elements
    of X on the way from a to c, and the arcs of Y from b to d leave that
    gap.  Any labels will do, canonical or not."""
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


def pairwise_noncrossing(labels) -> bool:
    return crossing_pair(labels) is None


def block_perm(s: tuple) -> tuple:
    """Underlying permutation of a partition: each block an increasing
    cycle."""
    im = list(range(1, len(s) + 1))
    for b in blocks_of(s):
        for i in range(len(b)):
            im[b[i] - 1] = b[(i + 1) % len(b)]
    return tuple(im)


def cycle_partition(perm: tuple):
    """Partition whose blocks are the cycles of perm, relabelled by first
    occurrence, or None unless every cycle increases from its minimum and
    no two cycles cross."""
    labels = [0] * len(perm)
    for start in range(1, len(perm) + 1):
        cyc = [start]
        while perm[cyc[-1] - 1] != start:
            cyc.append(perm[cyc[-1] - 1])
        if min(cyc) == start:
            if cyc != sorted(cyc):
                return None
            for i in cyc:
                labels[i - 1] = start
    s = canonical_labels(labels)
    return s if pairwise_noncrossing(s) else None


def block_mask(s: tuple) -> int:
    """Order mask of a partition: bit _band_index(t, u) for every pair
    u < t in one block."""
    m = 0
    for b in blocks_of(s):
        for k, t in enumerate(b):
            for u in b[:k]:
                m |= 1 << _band_index(t, u)
    return m


def set_partitions(n: int):
    """The Bell(n) set partitions of {1..n} as restricted-growth strings:
    label tuples in which each label is at most one more than every label
    before it, i.e. canonically labelled."""
    stack = [((), 0)]
    while stack:
        labels, nblocks = stack.pop()
        if len(labels) == n:
            yield labels
            continue
        for lab in range(nblocks + 1):
            stack.append((labels + (lab,), max(nblocks, lab + 1)))


def tau_pow_closed_form(st: GarsideStructure, s, k: int):
    """tau^k(s) = Delta^-k s Delta^k without the tau memo.  Classical:
    Delta is the reversal, so an odd k reverses both the positions and the
    values of the permutation.  Dual: Delta is the n-cycle i -> i + 1, so
    tau^k rotates the labels by k, which then need relabelling."""
    if isinstance(st, BKLStructure):
        r = -k % st.n
        return canonical_labels(s[r:] + s[:r])
    return tuple(st.n + 1 - v for v in reversed(s)) if k % 2 else s


def filtered_noncrossing_partitions(n: int) -> tuple:
    """The non-crossing partitions of {1..n} as sorted label tuples, by
    filtering all Bell(n) set partitions with the pairwise crossing test."""
    return tuple(sorted(filter(pairwise_noncrossing, set_partitions(n))))


# -- minimal conjugators and the conjugacy decision -----------------------------

def minimal_conjugator(x: GarsideElement, member, max_norm: int = MAX_NORM) -> GarsideElement:
    """Breadth-first search over positive elements ordered by letter norm
    for the unique minimal c with member(x^c).

    By gcd-closure two successes at the same minimal norm would force a
    success of smaller norm (their meet), so the first success found at
    the minimal norm is the unique minimal conjugator.
    """
    st = x.structure
    e = identity_element(st)
    if member(conjugate(x, e)):
        return e
    layer = {e}
    for _ in range(max_norm):
        nxt = set()
        for c in layer:
            for a in st.atoms:
                nxt.add(multiply(c, from_simple(st, a)))
        hits = [c for c in nxt if member(conjugate(x, c))]
        if hits:
            if len(hits) > 1:
                raise VerificationError(
                    "minimal conjugator is not unique; gcd-closure violated"
                )
            return hits[0]
        layer = nxt
    raise BudgetExceeded(f"no conjugator into the set within norm {max_norm}")


def minimal_sc_conjugator(x: GarsideElement, max_norm: int = MAX_NORM) -> GarsideElement:
    """The minimal positive element conjugating x into its sliding circuits."""
    return minimal_conjugator(x, in_sc, max_norm)


def minimal_sss_conjugator(x: GarsideElement, max_norm: int = MAX_NORM) -> GarsideElement:
    """The minimal positive element conjugating x into its super summit set."""
    rep, _ = slide_to_circuit(x)
    inf_s, ell_s = rep.inf, rep.canonical_length

    def member(y: GarsideElement) -> bool:
        return y.inf == inf_s and y.canonical_length == ell_s

    return minimal_conjugator(x, member, max_norm)


def summit_conjugators(y: GarsideElement) -> tuple:
    """(rho, minimal) for a summit element y: rho maps the order mask of
    each atom a to rho_a(y), each by iterating its own fixpoint from c = a
    to the end, and minimal lists the distinct <=-minimal rho_a(y) in atom
    order of first appearance.

    rho_a(y) is the least fixpoint of
    c <- c v (y_1...y_r \\ tau^p(c)) v (the same term for y^-1), with
    y = Delta^p y_1...y_r and u \\ t = u^-1 (u v t) taken factor by factor.
    """
    st = y.structure
    y_inv = inverse(y)
    rho = {}
    for a in st.atoms:
        c, nxt = None, a
        while nxt != c:
            c = nxt
            for z in (y, y_inv):
                t = st.tau_pow(c, z.p)
                for f in z.factors:
                    t = st.lquot(f, st.join_simple(f, t))
                nxt = st.join_simple(nxt, t)
        rho[st.order_mask(a)] = c
    minimal = []
    for c in rho.values():
        if c not in minimal and not any(d != c and st.leq(d, c) for d in rho.values()):
            minimal.append(c)
    return rho, minimal


def solve_cdp(x: GarsideElement, y: GarsideElement) -> bool:
    """Conjugacy decision: do x and y lie in the same conjugacy class?"""
    return solve_csp(x, y) is not None


# -- the CLI's argv by argparse ------------------------------------------------

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built once per process: parsing leaves the parser as it was.  Global
    # flags live in a parent parser so they are accepted both before
    # and after the subcommand; SUPPRESS keeps the subparser occurrence from
    # clobbering an earlier one with a default
    common = argparse.ArgumentParser(add_help=False)
    g = common.add_argument_group("common options")
    g.add_argument("--structure", choices=["artin", "bkl"],
                   default=argparse.SUPPRESS,
                   help="Garside structure on B_n (default: artin)")
    g.add_argument("--n", type=int, default=argparse.SUPPRESS,
                   help="number of strands (default: 4)")
    g.add_argument("--format", choices=["text", "json", "csv"],
                   default=argparse.SUPPRESS)
    g.add_argument("--max-vertices", type=int, default=argparse.SUPPRESS)
    g.add_argument("--max-set-size", type=int, default=argparse.SUPPRESS)
    g.add_argument("--max-trajectory", type=int, default=argparse.SUPPRESS)

    parser = argparse.ArgumentParser(
        prog="garside",
        description="Braid and Garside group conjugacy via cyclic sliding.",
        parents=[common],
    )

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("nf", parents=[common], help="left normal form of a word")
    p.add_argument("word")

    p = sub.add_parser("slide", parents=[common], help="iterated cyclic sliding")
    p.add_argument("word")
    p.add_argument("-k", type=int, default=1,
                   help="number of slidings (at most --max-trajectory)")

    p = sub.add_parser("traj", parents=[common],
                       help="full sliding trajectory with prefixes")
    p.add_argument("word")

    p = sub.add_parser("sc", parents=[common],
                       help="set of sliding circuits of the class")
    p.add_argument("word")

    p = sub.add_parser("scg", parents=[common],
                       help="sliding circuits graph: vertices and arrows")
    p.add_argument("word")

    p = sub.add_parser("conj", parents=[common],
                       help="decide conjugacy; print a verified witness")
    p.add_argument("word1")
    p.add_argument("word2")

    p = sub.add_parser("table", parents=[common],
                       help="length-1 class statistics row")
    p.add_argument("--inf", type=int, default=0, help="summit infimum i")

    p = sub.add_parser("rigid", parents=[common],
                       help="rigidity verdict and prefix products")
    p.add_argument("word")
    p.add_argument("-k", type=int, default=10,
                   help="longest prefix product shown (at most --max-trajectory)")

    return parser


# filled in after parsing; argparse.set_defaults would mutate the shared
# parent-parser actions and clobber flags given before the subcommand
_DEFAULTS = {
    "structure": "artin", "n": 4, "format": "text",
    "max_vertices": Budgets().max_vertices,
    "max_set_size": Budgets().max_set_size,
    "max_trajectory": Budgets().max_trajectory_states,
}


def argparse_args(argv) -> argparse.Namespace:
    """What the argparse tree read from argv, defaults filled in; a usage
    error raises SystemExit(2) and -h SystemExit(0)."""
    args = _build_parser().parse_args(argv)
    for key, value in _DEFAULTS.items():
        if not hasattr(args, key):
            setattr(args, key, value)
    return args
