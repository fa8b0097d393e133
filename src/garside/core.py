"""Structure-generic Garside element arithmetic.

Elements of a Garside group are kept in left normal form Delta^p x_1 ... x_r,
where every factor is a simple element strictly between the trivial element
and Delta, and every adjacent pair (x_i, x_{i+1}) is left weighted.  All
operations here are written against the descriptor contract in
:class:`GarsideStructure`, so the same code drives every concrete structure.

Simple elements are plain hashable values (tuples in practice); the
descriptor owns their semantics.

A word becomes a normal form in three stages (:func:`left_normal_form`):
inverse pairs of atoms separated only by atoms that commute with them are
cancelled in one linear pass, the remaining letters are folded into runs
of simples of one sign, and each run is pushed onto the factor list by a
right-to-left wave of local slidings.

Every unary fact about a simple is memoised per simple in a :class:`Memo`.
``tau``, ``tau_inv``, ``norm``, ``order_mask`` and the dual ``from_mask``
are memos read by subscript (``st.tau[s]``); ``complement`` stays a method,
as perfbench/tracer.py wraps it by name.  Three tables are kept by hand,
each with its reason at its lookup: the dual ``from_perm`` memo and the
render and token tables of ``words``.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Sequence


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


class Budgets(namedtuple("Budgets", "max_vertices max_set_size max_trajectory_states",
                         defaults=(100_000, 1_000_000, 10**6))):
    """Caps for the enumerative algorithms and for sliding trajectories;
    exhaustion raises BudgetExceeded.  The fields of ``Budgets()`` are the
    defaults of the library functions and of the CLI flags."""

    __slots__ = ()


class Memo(dict):
    """The memo of one function: reading a missing key computes the value,
    stores it and returns it.  A compute that raises stores nothing.  Read
    it by subscript, since ``get`` skips the compute."""

    __slots__ = ("compute",)

    def __init__(self, compute) -> None:
        self.compute = compute

    def __missing__(self, key):
        value = self[key] = self.compute(key)
        return value


class GarsideStructure:
    """Contract a concrete finite-type Garside structure must satisfy.

    Subclasses provide the primitive operations on simple elements; this
    base class supplies derived operations (complement and tau powers) and
    memos of the hot unary operations.  ``tau``, ``tau_inv``, ``norm`` and
    ``order_mask`` are Memos read by subscript; ``complement`` and
    ``complement_inv`` are methods, because perfbench/tracer.py wraps them.

    The prefix order is read off ``order_mask``: each simple has an int
    mask, such that a <= b iff every bit of a's mask is set in b's.  The
    subclass computes it in ``_order_mask``.

    Attributes that subclasses must set: ``name``, ``atoms`` (tuple of
    simples, fixed order), ``delta``, ``trivial``, ``norm_of_delta`` and
    ``tau_order`` (the order of tau as a permutation of the simples).
    Callers test for the trivial element and for Delta by comparing with
    ``trivial`` and ``delta``.
    """

    name: str
    atoms: tuple
    delta: object
    trivial: object
    norm_of_delta: int
    tau_order: int

    def __init__(self) -> None:
        # _complement is looked up on each miss, so perfbench/tracer.py's wrappers see it
        self._complement_cache = Memo(lambda s: self._complement(s))
        self._complement_inv_cache = Memo(lambda s: self._complement_inv(s))
        self.tau = Memo(lambda s: self.complement(self.complement(s)))
        self.tau_inv = Memo(lambda s: self.complement_inv(self.complement_inv(s)))
        self.norm = Memo(self._norm)
        self.order_mask = Memo(self._order_mask)
        self._render_cache: dict = {}  # simple -> word string, filled by words.render_simple
        self._token_cache: dict = {}  # sigma or band token -> letters, filled by words.parse_word
        self.atom_index = Memo(lambda s: self.atoms.index(s) if s in self.atoms else -1)
        self._commute_cache = Memo(self._atoms_commute)  # key i * len(atoms) + j

    # -- primitives a subclass must implement ------------------------------

    def leq(self, a, b) -> bool:
        """Prefix order a <= b on simples: containment of order masks."""
        return not self.order_mask[a] & ~self.order_mask[b]

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

    def to_perm(self, s) -> tuple:
        """The underlying permutation of s in one-line notation, so that
        the permutation of a product of simples is the composition of
        theirs, (a * b)(i) = b(a(i))."""
        raise NotImplementedError

    def simples(self) -> tuple:
        """All simple elements, sorted: the canonical total order on simples
        is the order of their encodings as tuples.  The tuple is built on
        each call, and no copy of it is kept."""
        raise NotImplementedError

    def simple_count(self) -> int:
        """Number of simple elements, known without enumerating them."""
        raise NotImplementedError

    # -- cached unary operations -------------------------------------------

    def complement(self, s):
        return self._complement_cache[s]

    def complement_inv(self, s):
        return self._complement_inv_cache[s]

    # -- derived operations -------------------------------------------------

    def _atoms_commute(self, key: int) -> bool:
        """True iff the distinct atoms i and j, key = i * len(atoms) + j,
        commute: ab and ba are simple and equal.  Stores the other key too."""
        i, j = divmod(key, len(self.atoms))
        a, b = self.atoms[i], self.atoms[j]
        r = self._commute_cache[j * len(self.atoms) + i] = (
            self.leq(b, self.complement(a)) and self.leq(a, self.complement(b))
            and self.prod(a, b) == self.prod(b, a))
        return r

    def tau_pow(self, s, k: int):
        k %= self.tau_order
        if 2 * k > self.tau_order:
            for _ in range(self.tau_order - k):
                s = self.tau_inv[s]
        else:
            for _ in range(k):
                s = self.tau[s]
        return s


class GarsideElement:
    """A group element in left normal form Delta^p x_1 ... x_r.

    Never changed once built; equality and hashing go through the normal
    form (p, factors), which is unique, so these coincide with equality of
    group elements.  The structure takes no part in them.
    """

    __slots__ = ("structure", "p", "factors")

    def __init__(self, structure: GarsideStructure, p: int, factors: tuple) -> None:
        self.structure = structure
        self.p = p
        self.factors = factors

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.p == other.p and self.factors == other.factors

    def __hash__(self) -> int:
        return hash((self.p, self.factors))

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
    if c == st.trivial:
        return 0
    fs.append(c)
    i = len(fs) - 1
    while i and fs[i] != st.delta:
        a, b = fs[i - 1], fs[i]
        s = st.meet_simple(st.complement(a), b)
        if s == st.trivial:
            break
        fs[i - 1] = st.prod(a, s)
        fs[i] = st.lquot(s, b)
        i -= 1
    d = 0
    if fs[i] == st.delta:
        del fs[i]
        fs[:i] = [st.tau[f] for f in fs[:i]]
        d = 1
    if fs and fs[-1] == st.trivial:
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
    if c == st.trivial:
        return 0
    fs.insert(0, c)
    for i in range(len(fs) - 1):
        a, b = fs[i], fs[i + 1]
        s = st.meet_simple(st.complement(a), b)
        if s == st.trivial:
            break
        fs[i] = st.prod(a, s)
        b = st.lquot(s, b)
        if b == st.trivial:
            del fs[i + 1]
            break
        fs[i + 1] = b
    if fs[0] == st.delta:
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
    if s == st.trivial:
        return identity_element(st)
    if s == st.delta:
        return delta_power(st, 1)
    return _element(st, 0, (s,))


def _cancel_commuting_pairs(st: GarsideStructure, word: Iterable) -> list:
    """Free cancellation across commuting atoms, in one left-to-right pass.

    Each atom letter a^e (e = +-1) scans back over the letters kept so far
    while they are atoms that commute with a; on reaching a^-e it deletes
    that letter and is dropped itself.  A Delta^k letter, a simple that is
    not an atom, an exponent other than +-1, a^e itself or an atom that does
    not commute with a ends the scan, so such letters reach
    :func:`_letter_runs` unchanged.  Returns the kept letters as
    (simple, exponent, atom index or -1) triples.
    """
    index = st.atom_index
    commute = st._commute_cache
    na = len(st.atoms)
    out: list = []
    for s, e in word:
        k = index[s] if e == 1 or e == -1 else -1
        row = k * na
        j = len(out) - 1 if k >= 0 else -1
        while j >= 0:
            h = out[j][2]
            if h == k or h < 0:
                break
            if not commute[row + h]:
                break
            j -= 1
        if j >= 0 and out[j][2] == k and out[j][1] == -e:
            del out[j]
        else:
            out.append((s, e, k))
    return out


def _letter_runs(st: GarsideStructure, word: Iterable):
    """Fold consecutive letters of one sign into simples.

    Reads the (simple, exponent, atom index) triples of
    :func:`_cancel_commuting_pairs`.  Yields (r, e): the run r^e with
    e = +-1, where a run grows while the product stays simple.  A positive run r takes s when s <= partial(r)
    (r s is then simple); a negative run r, standing for r^-1, takes s^-1
    when r <= partial(s) (s r is then simple).  A Delta letter ends the
    run and is yielded as it is, (Delta, k).
    """
    run, sign = None, 0
    for s, e, _ in word:
        delta = s == st.delta
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

    The word goes through three stages, in this order:

    1. cancel: an atom letter a^e and an earlier a^-e are both deleted when
       every letter between them is an atom that commutes with a
       (:func:`_cancel_commuting_pairs`), which is group arithmetic in
       one linear pass;
    2. runs: consecutive letters of one sign are multiplied into one simple
       while the product stays simple (:func:`_letter_runs`);
    3. waves: each run is pushed with one right-to-left wave of local
       slidings (:func:`_push_factor`).  A negative run r^-1 is pushed as
       Delta^-1 partial^-1(r).

    The normal form is unique, so the first stage changes only the work
    done, never the result.

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
    for r, e in _letter_runs(st, _cancel_commuting_pairs(st, word)):
        if r == st.delta:
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
    # Delta^(tau_order) is central: tau^0 leaves the factors as they are
    if y.p % st.tau_order:
        fs = [st.tau_pow(f, y.p) for f in x.factors]
    else:
        fs = list(x.factors)
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
    if s == st.trivial:
        return x
    q = st.complement_inv(st.tau_pow(s, x.p))
    fs = list(x.factors)
    p = x.p - 1 + _push_front(st, fs, q)
    p += _push_factor(st, fs, s)
    return _element(st, p, fs)
