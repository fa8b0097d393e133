import random

import pytest

from garside.artin import artin_structure
from garside.bkl import bkl_structure
from garside.circuits import compute_scg
from garside.core import (
    VerificationError,
    _element,
    conjugate,
    conjugate_simple,
    delta_power,
    from_simple,
    inverse,
    left_normal_form,
    multiply,
)
from garside.sliding import sliding_trajectory

from oracles import slide_witness


def random_word(st, rng, length=None):
    """A random word of atom letters with random signs."""
    if length is None:
        length = rng.randint(0, 10)
    return [(rng.choice(st.atoms), rng.choice([1, -1])) for _ in range(length)]


def random_element(st, rng, length=None):
    return left_normal_form(st, random_word(st, rng, length))


def random_positive_element(st, rng, length=None):
    if length is None:
        length = rng.randint(0, 10)
    return left_normal_form(
        st, [(rng.choice(st.atoms), 1) for _ in range(length)]
    )


def structures_for_properties():
    """The structure pool the randomized suites draw from."""
    return [artin_structure(n) for n in (3, 4, 5)] + [
        bkl_structure(n) for n in (3, 4, 5, 6)
    ]


def greedy_meet_simple(st, a, b):
    """Classical meet oracle: greatest common prefix of two permutation
    braids by greedy atom extension."""
    # Greedy atom extension u -> u sigma_k.  Appending sigma_k adds the
    # inversion at the positions of values k, k+1 (valid only if k sits
    # left of k+1 in u); the extension stays below a and b iff that
    # position pair is inverted in both.
    n = st.n
    u = list(range(1, n + 1))
    pos = list(range(n))  # pos[v-1] = index of value v in u
    changed = True
    while changed:
        changed = False
        for k in range(1, n):
            i, j = pos[k - 1], pos[k]
            if i < j and a[i] > a[j] and b[i] > b[j]:
                u[i], u[j] = k + 1, k
                pos[k - 1], pos[k] = j, i
                changed = True
    return tuple(u)


def letterwise_normal_form(st, word):
    """Normal-form oracle: push one letter at a time, exponent +-1 only.

    An inverse letter is rewritten through the complement,
    s^-1 = Delta^-1 partial^-1(s), and the factors already pushed are
    rebuilt by tau^-1 at once.
    """
    p = 0
    fs: list = []
    for s, e in word:
        if e == 1:
            dp, c = 0, s
        elif e == -1:
            dp, c = -1, st.complement_inv(s)
        else:
            raise ValueError(f"letter exponent must be +-1, got {e}")
        if dp:
            # X Delta^dp = Delta^dp tau^dp(X)
            p += dp
            fs = [st.tau_pow(f, dp) for f in fs]
        p += stepwise_push_factor(st, fs, c)
    return _element(st, p, fs)


def stepwise_push_factor(st, fs, c):
    """Push oracle: append simple c to the normal-form factor list fs by a
    right-to-left wave of local slidings that runs on to the front when a
    factor becomes Delta, then strips that Delta; returns 0 or 1."""
    if c == st.trivial:
        return 0
    if c == st.delta:
        fs[:] = [st.tau[f] for f in fs]
        return 1
    fs.append(c)
    i = len(fs) - 2
    while i >= 0:
        a, b = fs[i], fs[i + 1]
        s = st.meet_simple(st.complement(a), b)
        if s == st.trivial:
            break
        fs[i] = st.prod(a, s)
        fs[i + 1] = st.lquot(s, b)
        i -= 1
    d = 0
    if fs and fs[0] == st.delta:
        del fs[0]
        d = 1
    if fs and fs[-1] == st.trivial:
        del fs[-1]
    return d


def rebuild_conjugate_simple(x, s):
    """Conjugation oracle: x^s = Delta^(p-1) q x_1...x_r s with
    q = partial^-1(tau^p(s)), by pushing q, every factor of x and s onto an
    empty list."""
    st = x.structure
    if s == st.trivial:
        return x
    q = st.complement_inv(st.tau_pow(s, x.p))
    p = x.p - 1
    fs: list = []
    p += stepwise_push_factor(st, fs, q)
    for c in x.factors:
        p += stepwise_push_factor(st, fs, c)
    p += stepwise_push_factor(st, fs, s)
    return _element(st, p, fs)


def wave_corpus():
    """Fixed-seed inputs for the wave cross-checks: (x, conjugators) in
    classical and dual B_3..B_8.  The words mix signs and D^k letters; the
    conjugators are random simples, the trivial element, Delta, partial of
    the last factor (a Delta mid-wave) and partial^-1 of the first."""
    rng = random.Random(20261018)
    out = []
    for n in range(3, 9):
        for st in (artin_structure(n), bkl_structure(n)):
            for _ in range(20):
                word = random_word(st, rng, rng.randint(0, 36))
                for _ in range(rng.randint(0, 2)):
                    word.insert(rng.randint(0, len(word)),
                                (st.delta, rng.randint(-3, 3)))
                x = left_normal_form(st, word)
                cs = [st.trivial, st.delta]
                for _ in range(3):
                    y = random_positive_element(st, rng, rng.randint(1, n))
                    cs.append(y.factors[0] if y.factors else st.delta)
                if x.factors:
                    cs.append(st.complement(x.factors[-1]))
                    cs.append(st.complement_inv(x.factors[0]))
                out.append((x, cs))
    return out


def sss_with_witnesses(x):
    """Summit-set oracle: closure of a summit representative under
    conjugation by every simple element, keeping a conjugator per member."""
    st = x.structure
    rep, wit = slide_witness(x)
    out = {rep: wit}
    frontier = [rep]
    while frontier:
        y = frontier.pop()
        for s in st.simples():
            if s == st.trivial:
                continue
            z = conjugate_simple(y, s)
            if z.inf == rep.inf and z.canonical_length == rep.canonical_length \
                    and z not in out:
                out[z] = multiply(out[y], from_simple(st, s))
                frontier.append(z)
    return out


def scan_indecomposable_conjugators(y, member):
    """Arrow oracle: minimal nontrivial simple conjugators keeping y inside
    the set recognized by `member`, by a scan over all simples.

    Scan all simples s with member(y^s); by gcd-closure the minimal
    candidates above each atom are meets of successes, and the result is
    the set of those that are minimal overall.
    """
    st = y.structure
    if not member(y):
        raise VerificationError("element is not in the set; conjugator search undefined")
    per_atom: dict = {}
    for a in st.atoms:
        per_atom[a] = None
    for s in st.simples():
        if s == st.trivial:
            continue
        if not member(conjugate_simple(y, s)):
            continue
        for a in st.atoms:
            if st.leq(a, s):
                cur = per_atom[a]
                per_atom[a] = s if cur is None else st.meet_simple(cur, s)
    out = []
    for a in st.atoms:
        c = per_atom[a]
        if c is None:
            continue
        # c is minimal among successes above atom a; keep it only if no
        # success sits strictly below it (i.e. it is minimal overall)
        if all(
            c2 is None or c2 == c or not st.leq(c2, c) for c2 in per_atom.values()
        ) and c not in out:
            out.append(c)
    out.sort()
    return out


def full_graph_conjugator(x, y):
    """Solver oracle: build the whole sliding circuits graph of x, then take
    the first vertex, in the order the walk found them, that is
    tau^k(s_j) = y^(P_j Delta^k) for a state s_j on y's circuit; with the
    least such (j, k), a conjugator c = witness (P_j Delta^k)^-1 with
    x^c = y, shifted by the central power of Delta that makes its |inf|
    least, or None."""
    st = y.structure
    traj = sliding_trajectory(y)
    delta = delta_power(st, 1)
    graph = compute_scg(x)
    wit_x = slide_witness(x)[1]
    for v in graph.parent:
        for j in range(traj.entry_index, len(traj.states)):
            t, k = traj.states[j], 0
            while t != v:
                t, k = conjugate(t, delta), k + 1
                if t == traj.states[j]:
                    break
            if t == v:
                to_v = multiply(traj.prefix_product(j), delta_power(st, k))
                w = multiply(wit_x, graph.conjugator_to(v))
                return shortest_central_shift(multiply(w, inverse(to_v)))
    return None


def shortest_central_shift(c):
    """Of the c Delta^(m e), e the order of tau, which are central shifts
    of c, the one of least |inf|, the non-negative one of two; found by
    trying every m that can reach it."""
    st = c.structure
    e = st.tau_order
    shifts = [multiply(c, delta_power(st, m * e))
              for m in range(-abs(c.p) // e - 1, abs(c.p) // e + 2)]
    return min(shifts, key=lambda d: (abs(d.p), d.p < 0))


@pytest.fixture
def rng():
    return random.Random(20260826)
