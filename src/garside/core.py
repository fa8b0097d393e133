"""Structure-generic Garside element arithmetic.

Elements of a Garside group are kept in left normal form Delta^p x_1 ... x_r,
where every factor is a simple element strictly between the trivial element
and Delta, and every adjacent pair (x_i, x_{i+1}) is left weighted.  All
operations here are written against the descriptor contract in
:class:`GarsideStructure`, so the same code drives every concrete structure.

Simple elements are plain hashable values (tuples in practice); the
descriptor owns their semantics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence


class VerificationError(RuntimeError):
    """A check that guards a computed answer failed.

    The input was valid and the program is at fault.  Unlike an ``assert``,
    the check is not stripped under ``python -O``.
    """


class BudgetExceeded(RuntimeError):
    """A configured budget ran out: an enumeration outgrew its cap, or a
    sliding trajectory its state cap.

    Distinct from any mathematical outcome: the computation was cut short
    and nothing can be concluded from partial results.
    """


@dataclass
class Budgets:
    """Caps for the enumerative algorithms and for sliding trajectories;
    exhaustion raises BudgetExceeded.  The class defaults are the defaults
    of the library functions and of the CLI flags."""

    max_vertices: int = 100_000
    max_set_size: int = 1_000_000
    max_trajectory_states: int = 10**6


class GarsideStructure:
    """Contract a concrete finite-type Garside structure must satisfy.

    Subclasses provide the primitive operations on simple elements; this
    base class supplies derived operations (complement and tau powers) and
    small memo caches for the hot unary operations.

    The prefix order is read off ``order_mask``: each simple has an int
    mask, such that a <= b iff every bit of a's mask is set in b's.  The
    subclass computes it in ``_order_mask`` and the base class memoises it
    per simple, so a cache holds at most ``simple_count()`` entries.

    Attributes that subclasses must set: ``name``, ``atoms`` (tuple of
    simples, fixed order), ``delta``, ``trivial``, ``norm_of_delta`` and
    ``tau_order`` (the order of tau as a permutation of the simples).
    """

    name: str
    atoms: tuple
    delta: object
    trivial: object
    norm_of_delta: int
    tau_order: int

    def __init__(self) -> None:
        self._complement_cache: dict = {}
        self._complement_inv_cache: dict = {}
        self._tau_cache: dict = {}
        self._tau_inv_cache: dict = {}
        self._norm_cache: dict = {}
        self._order_mask_cache: dict = {}
        self._render_cache: dict = {}  # simple -> word string, filled by words.render_simple
        self._by_norm: list | None = None

    # -- primitives a subclass must implement ------------------------------

    def is_trivial(self, s) -> bool:
        return s == self.trivial

    def is_delta(self, s) -> bool:
        return s == self.delta

    def leq(self, a, b) -> bool:
        """Prefix order a <= b on simples: containment of order masks."""
        return not self.order_mask(a) & ~self.order_mask(b)

    def meet_simple(self, a, b):
        """Greatest common prefix of two simples."""
        raise NotImplementedError

    def join_simple(self, a, b):
        """Least common multiple of two simples for the prefix order."""
        raise NotImplementedError

    def _complement(self, s):
        """partial(s) = s^-1 Delta."""
        raise NotImplementedError

    def _complement_inv(self, s):
        """partial^-1(s) = Delta s^-1."""
        raise NotImplementedError

    def prod(self, a, b):
        """Product of simples, under the guarantee that it is simple."""
        raise NotImplementedError

    def lquot(self, s, b):
        """s^-1 b, under the guarantee s <= b."""
        raise NotImplementedError

    def _norm(self, s) -> int:
        """Letter length of s as a positive word in the atoms."""
        raise NotImplementedError

    def _order_mask(self, s) -> int:
        """The order relation of s as a bitmask: a <= b iff
        _order_mask(a) & ~_order_mask(b) == 0."""
        raise NotImplementedError

    def simples(self) -> tuple:
        """All simple elements, sorted: the canonical total order on simples
        is the order of their encodings as tuples."""
        raise NotImplementedError

    def simple_count(self) -> int:
        """Number of simple elements, known without enumerating them."""
        raise NotImplementedError

    def simples_by_norm(self) -> list:
        """The nontrivial simples in increasing norm, ties in the canonical
        order, each with the atoms below it: (s, mask, indices), where
        indices lists the i with atoms[i] <= s and mask has those bits set.
        Built on first use."""
        if self._by_norm is None:
            out = []
            for s in sorted(self.simples(), key=self.norm):
                below = tuple(i for i, a in enumerate(self.atoms) if self.leq(a, s))
                if below:
                    out.append((s, sum(1 << i for i in below), below))
            self._by_norm = out
        return self._by_norm

    # -- cached unary operations -------------------------------------------

    def complement(self, s):
        r = self._complement_cache.get(s)
        if r is None:
            r = self._complement_cache[s] = self._complement(s)
        return r

    def complement_inv(self, s):
        r = self._complement_inv_cache.get(s)
        if r is None:
            r = self._complement_inv_cache[s] = self._complement_inv(s)
        return r

    def tau(self, s):
        r = self._tau_cache.get(s)
        if r is None:
            r = self._tau_cache[s] = self.complement(self.complement(s))
        return r

    def tau_inv(self, s):
        r = self._tau_inv_cache.get(s)
        if r is None:
            r = self._tau_inv_cache[s] = self.complement_inv(self.complement_inv(s))
        return r

    def norm(self, s) -> int:
        r = self._norm_cache.get(s)
        if r is None:
            r = self._norm_cache[s] = self._norm(s)
        return r

    def order_mask(self, s) -> int:
        r = self._order_mask_cache.get(s)
        if r is None:
            r = self._order_mask_cache[s] = self._order_mask(s)
        return r

    # -- derived operations -------------------------------------------------

    def tau_pow(self, s, k: int):
        k %= self.tau_order
        if 2 * k > self.tau_order:
            for _ in range(self.tau_order - k):
                s = self.tau_inv(s)
        else:
            for _ in range(k):
                s = self.tau(s)
        return s


@dataclass(frozen=True)
class GarsideElement:
    """A group element in left normal form Delta^p x_1 ... x_r.

    Immutable; equality and hashing go through the normal form, which is
    unique, so these coincide with equality of group elements.
    """

    structure: GarsideStructure = field(compare=False, hash=False)
    p: int
    factors: tuple

    @property
    def inf(self) -> int:
        return self.p

    @property
    def sup(self) -> int:
        return self.p + len(self.factors)

    @property
    def canonical_length(self) -> int:
        return len(self.factors)

    def sort_key(self):
        return (self.p, len(self.factors), self.factors)

    def __repr__(self) -> str:
        return f"<{self.structure.name}: p={self.p} factors={list(self.factors)}>"


def _push_factor(st: GarsideStructure, fs: list, c) -> int:
    """Append simple c to the normal-form factor list fs, restoring
    normality by a right-to-left wave of local slidings.

    Each step replaces a pair (a, b) by (a s, s^-1 b) with
    s = partial(a) /\\ b, and the wave stops at the first trivial s.  When
    a step (or c itself) yields Delta, the wave stops there too: the
    remaining steps would only move that Delta to the front, twisting each
    factor it passes by tau (X Delta = Delta tau(X)), so the Delta is
    dropped and tau is applied once to each factor in front of it.

    fs must hold factors all strictly between trivial and Delta; the same
    holds on return.  Returns the Delta power stripped off the front
    (0 or 1).
    """
    if st.is_trivial(c):
        return 0
    fs.append(c)
    i = len(fs) - 1
    while i and not st.is_delta(fs[i]):
        a, b = fs[i - 1], fs[i]
        s = st.meet_simple(st.complement(a), b)
        if st.is_trivial(s):
            break
        fs[i - 1] = st.prod(a, s)
        fs[i] = st.lquot(s, b)
        i -= 1
    d = 0
    if st.is_delta(fs[i]):
        del fs[i]
        fs[:i] = [st.tau(f) for f in fs[:i]]
        d = 1
    if fs and st.is_trivial(fs[-1]):
        del fs[-1]
    return d


def _push_front(st: GarsideStructure, fs: list, c) -> int:
    """Prepend simple c to the normal-form factor list fs, restoring
    normality by a left-to-right wave of local slidings.

    The first factor of c x_1...x_r is c (partial(c) /\\ x_1), and the rest
    is the normal form of (partial(c) /\\ x_1)^-1 x_1 times x_2...x_r, so
    each step is the local sliding of :func:`_push_factor` on the next pair.
    The wave stops at the first trivial meet, or where the carried simple
    is used up (the factor it leaves is trivial and dropped).  Only the
    first factor can become Delta (inf(c X) <= sup(c) + inf(X) = 1); it is
    stripped.

    fs must hold factors all strictly between trivial and Delta; the same
    holds on return.  Returns the Delta power stripped off the front
    (0 or 1).
    """
    if st.is_trivial(c):
        return 0
    fs.insert(0, c)
    for i in range(len(fs) - 1):
        a, b = fs[i], fs[i + 1]
        s = st.meet_simple(st.complement(a), b)
        if st.is_trivial(s):
            break
        fs[i] = st.prod(a, s)
        b = st.lquot(s, b)
        if st.is_trivial(b):
            del fs[i + 1]
            break
        fs[i + 1] = b
    if st.is_delta(fs[0]):
        del fs[0]
        return 1
    return 0


def _element(st: GarsideStructure, p: int, fs: Sequence) -> GarsideElement:
    return GarsideElement(st, p, tuple(fs))


def identity_element(st: GarsideStructure) -> GarsideElement:
    return _element(st, 0, ())


def delta_power(st: GarsideStructure, k: int) -> GarsideElement:
    return _element(st, k, ())


def from_simple(st: GarsideStructure, s) -> GarsideElement:
    if st.is_trivial(s):
        return identity_element(st)
    if st.is_delta(s):
        return delta_power(st, 1)
    return _element(st, 0, (s,))


def _letter_runs(st: GarsideStructure, word: Iterable):
    """Fold consecutive letters of one sign into simples.

    Yields (r, e): the run r^e with e = +-1, where a run grows while the
    product stays simple.  A positive run r takes s when s <= partial(r)
    (r s is then simple); a negative run r, standing for r^-1, takes s^-1
    when r <= partial(s) (s r is then simple).  A Delta letter ends the
    run and is yielded as it is, (Delta, k).
    """
    run, sign = None, 0
    for s, e in word:
        delta = st.is_delta(s)
        if e == sign and not delta:
            if e == 1:
                if st.leq(s, st.complement(run)):
                    run = st.prod(run, s)
                    continue
            elif st.leq(run, st.complement(s)):
                run = st.prod(s, run)
                continue
        if sign:
            yield run, sign
        if delta:
            yield s, e
            run, sign = None, 0
        elif e == 1 or e == -1:
            run, sign = s, e
        else:
            raise ValueError(f"letter exponent must be +-1, got {e}")
    if sign:
        yield run, sign


def left_normal_form(st: GarsideStructure, word: Iterable) -> GarsideElement:
    """Normal form of a word of (simple, exponent) letters.

    Every exponent is +-1, except on the Delta letter, which may take any
    integer exponent k: Delta^k costs O(1) whatever k is.  Any other letter
    with an exponent other than +-1 raises ValueError.

    Consecutive letters of one sign are first multiplied into one simple
    while the product stays simple (:func:`_letter_runs`), and each run is
    pushed with one right-to-left wave of local slidings
    (:func:`_push_factor`).  A negative run r^-1 is pushed as
    Delta^-1 partial^-1(r).

    Moving Delta^k to the front twists the factors behind it by tau^k
    (X Delta^k = Delta^k tau^k(X)).  The factors are not rebuilt for that:
    a twist count m is kept such that the factors of the element are
    tau^-m of the stored ones.  A positive run r is stored as tau^m(r); a
    negative run does p -= 1 and m += 1, then stores tau^m(partial^-1(r));
    a Delta^k letter (or a run equal to Delta) does p += k and m -= k.
    tau^-m is applied once to each factor at the end.
    """
    p = m = 0
    fs: list = []
    for r, e in _letter_runs(st, word):
        if st.is_delta(r):
            p += e
            m -= e
            continue
        if e == -1:
            p -= 1
            m += 1
            r = st.complement_inv(r)
        p += _push_factor(st, fs, st.tau_pow(r, m))
    return _element(st, p, [st.tau_pow(f, -m) for f in fs])


def multiply(x: GarsideElement, y: GarsideElement) -> GarsideElement:
    st = x.structure
    if st is not y.structure:
        raise ValueError("elements over different structures")
    p = x.p + y.p
    fs = [st.tau_pow(f, y.p) for f in x.factors]
    for c in y.factors:
        p += _push_factor(st, fs, c)
    return _element(st, p, fs)


def inverse(x: GarsideElement) -> GarsideElement:
    """Normal form of x^-1 by the closed formula: for x = Delta^p x_1...x_r,
    x^-1 = Delta^-(p+r) partial^(-2(p+r)+1)(x_r) ... partial^(-2(p+1)+1)(x_1),
    where partial^(-2m+1) = partial tau^-m since partial^2 = tau.
    """
    st = x.structure
    r = len(x.factors)
    fs = [
        st.complement(st.tau_pow(x.factors[r - 1 - j], -(x.p + r - j)))
        for j in range(r)
    ]
    return _element(st, -(x.p + r), fs)


def power(x: GarsideElement, k: int) -> GarsideElement:
    if k < 0:
        return inverse(power(x, -k))
    st = x.structure
    result = identity_element(st)
    sq = x
    while k:
        if k & 1:
            result = multiply(result, sq)
        k >>= 1
        if k:
            sq = multiply(sq, sq)
    return result


def conjugate(x: GarsideElement, c: GarsideElement) -> GarsideElement:
    """x^c = c^-1 x c."""
    return multiply(multiply(inverse(c), x), c)


def conjugate_simple(x: GarsideElement, s) -> GarsideElement:
    """x^s for a simple conjugator s; avoids materializing s^-1 separately.

    s^-1 Delta^p = Delta^p tau^p(s)^-1 and tau^p(s)^-1 = Delta^-1 q with
    q = partial^-1(tau^p(s)), so x^s = Delta^(p-1) q x_1...x_r s.  Only the
    two ends of x_1...x_r change: q is pushed at the front with one
    left-to-right wave (:func:`_push_front`) and s at the back with one
    right-to-left wave (:func:`_push_factor`), each stopping early.
    """
    st = x.structure
    if st.is_trivial(s):
        return x
    q = st.complement_inv(st.tau_pow(s, x.p))
    fs = list(x.factors)
    p = x.p - 1 + _push_front(st, fs, q)
    p += _push_factor(st, fs, s)
    return _element(st, p, fs)
