"""Conjugacy dynamics: cycling, decycling, cyclic sliding and transport.

Everything here is a pure function of immutable elements.  The central
operation is cyclic sliding: conjugation of x by its preferred prefix,
the common prefix of the initial factors of x and x^-1.  Iterating it
reaches a periodic circuit; the recurrent elements form the set of
sliding circuits of the conjugacy class.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
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
    right_meet,
)


class TrajectoryCapExceeded(RuntimeError):
    """Iterated sliding, cycling or decycling exceeded the configured
    state cap.

    These orbits are always eventually periodic, so hitting the
    cap indicates either an absurdly long transient or a bug; we abort
    loudly instead of looping.
    """


def initial_factor(x: GarsideElement):
    """iota(x) = tau^{-p}(x_1); the trivial simple when x is a Delta power."""
    st = x.structure
    if not x.factors:
        return st.trivial
    return st.tau_pow(x.factors[0], -x.p)


def final_factor(x: GarsideElement):
    """phi(x) = x_r; Delta when x is a Delta power."""
    st = x.structure
    if not x.factors:
        return st.delta
    return x.factors[-1]


def preferred_prefix(x: GarsideElement):
    """p(x) = iota(x) /\\ iota(x^-1), computed from the normal form of x
    alone: iota(x^-1) = partial(phi(x))."""
    st = x.structure
    if not x.factors:
        return st.trivial
    return st.meet_simple(initial_factor(x), st.complement(final_factor(x)))


def cyclic_sliding(x: GarsideElement) -> GarsideElement:
    """s(x) = conjugate of x by its preferred prefix."""
    return conjugate_simple(x, preferred_prefix(x))


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


@dataclass(frozen=True)
class SlidingTrajectory:
    """The orbit of iterated cyclic sliding from a starting element.

    states[i] = s^i(start); prefixes[i] is the preferred prefix conjugating
    states[i] to states[i+1].  states[entry_index + period] = states[entry_index],
    with entry_index minimal and then period minimal.
    """

    start: GarsideElement
    states: tuple
    prefixes: tuple
    entry_index: int
    period: int

    def prefix_product(self, i: int) -> GarsideElement:
        """P_i(start) = p(start) p(s(start)) ... p(s^{i-1}(start))."""
        st = self.start.structure
        out = identity_element(st)
        for j in range(i):
            if j < len(self.prefixes):
                s = self.prefixes[j]
            else:
                k = self.entry_index + (j - self.entry_index) % self.period
                s = self.prefixes[k]
            out = multiply(out, from_simple(st, s))
        return out


def sliding_trajectory(x: GarsideElement, max_states: int = 10**6) -> SlidingTrajectory:
    """Iterate cyclic sliding from x until a state repeats."""
    states = [x]
    prefixes = []
    seen = {x: 0}
    cur = x
    while True:
        if len(states) > max_states:
            raise TrajectoryCapExceeded(
                f"sliding trajectory exceeded {max_states} states from {x!r}"
            )
        s = preferred_prefix(cur)
        nxt = conjugate_simple(cur, s)
        prefixes.append(s)
        if nxt in seen:
            entry = seen[nxt]
            return SlidingTrajectory(
                x, tuple(states), tuple(prefixes), entry, len(states) - entry
            )
        seen[nxt] = len(states)
        states.append(nxt)
        cur = nxt


def prefix_product(x: GarsideElement, i: int) -> GarsideElement:
    """P_i(x) without precomputing a full trajectory."""
    st = x.structure
    out = identity_element(st)
    for _ in range(i):
        s = preferred_prefix(x)
        out = multiply(out, from_simple(st, s))
        x = conjugate_simple(x, s)
    return out


def prefix_products(x: GarsideElement, k: int) -> list:
    """[P_0(x), ..., P_k(x)] by one walk of k slidings from x."""
    st = x.structure
    out = [identity_element(st)]
    for _ in range(k):
        s = preferred_prefix(x)
        out.append(multiply(out[-1], from_simple(st, s)))
        x = conjugate_simple(x, s)
    return out


def slide_to_circuit(x: GarsideElement, max_states: int = 10**6):
    """Iterate sliding into the periodic part.

    Returns (representative, witness, trajectory): the first recurrent
    state, an element conjugating x to it, and the full trajectory.
    """
    traj = sliding_trajectory(x, max_states)
    rep = traj.states[traj.entry_index]
    witness = traj.prefix_product(traj.entry_index)
    return rep, witness, traj


@dataclass(frozen=True)
class SummitInvariants:
    inf_s: int
    sup_s: int

    @property
    def ell_s(self) -> int:
        return self.sup_s - self.inf_s


def summit_invariants(x: GarsideElement, max_states: int = 10**6) -> SummitInvariants:
    rep, _, _ = slide_to_circuit(x, max_states)
    return SummitInvariants(rep.inf, rep.sup)


def in_sc(x: GarsideElement, max_states: int = 10**6) -> bool:
    """x lies on a sliding circuit iff iterated sliding returns to x."""
    traj = sliding_trajectory(x, max_states)
    return traj.entry_index == 0


def in_sss(x: GarsideElement, max_states: int = 10**6) -> bool:
    inv = summit_invariants(x, max_states)
    return x.inf == inv.inf_s and x.sup == inv.sup_s


def _returns(x: GarsideElement, step, max_states: int) -> bool:
    """Does iterating step from x come back to x?  The orbit may hold at
    most max_states states, as for a sliding trajectory."""
    seen = {x}
    cur = step(x)
    while cur not in seen:
        if len(seen) >= max_states:
            raise TrajectoryCapExceeded(
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


def is_rigid(x: GarsideElement) -> bool:
    """x is rigid iff its preferred prefix is trivial."""
    return x.structure.is_trivial(preferred_prefix(x))
