"""Cyclic sliding: preferred prefixes, sliding trajectories, prefix
products and rigidity.

Everything here is a pure function of immutable elements.  Cyclic sliding
is conjugation of x by its preferred prefix, the common prefix of the
initial factors of x and x^-1.  Iterating it reaches a periodic circuit;
the recurrent elements form the set of sliding circuits of the conjugacy
class.  Iterating is done once per trajectory, which then answers s^i(x)
for any i.  Only left normal forms and left sliding are used; cycling,
decycling, right sliding and transport are test oracles.

A trajectory may hold at most a given number of states, by default
``Budgets().max_trajectory_states``; past it, :class:`BudgetExceeded` is
raised, the one error of every budget.
"""

from __future__ import annotations

from collections import namedtuple

from .core import (
    BudgetExceeded,
    Budgets,
    GarsideElement,
    conjugate_simple,
    from_simple,
    identity_element,
    left_normal_form,
    multiply,
)


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


class SlidingTrajectory(namedtuple("SlidingTrajectory",
                                   "start states prefixes entry_index period")):
    """The orbit of iterated cyclic sliding from a starting element.

    states[i] = s^i(start); prefixes[i] is the preferred prefix conjugating
    states[i] to states[i+1].  states[entry_index + period] = states[entry_index],
    with entry_index minimal and then period minimal.
    """

    __slots__ = ()

    def _index(self, i: int) -> int:
        """Where s^i(start) and its preferred prefix sit in states and
        prefixes, for any i >= 0: past the last state, the circuit repeats."""
        if i < len(self.states):
            return i
        return self.entry_index + (i - self.entry_index) % self.period

    def state(self, i: int) -> GarsideElement:
        """s^i(start), for any i >= 0."""
        return self.states[self._index(i)]

    def prefix_product(self, i: int) -> GarsideElement:
        """P_i(start) = p(start) p(s(start)) ... p(s^{i-1}(start))."""
        return left_normal_form(self.start.structure,
                                [(self.prefixes[self._index(j)], 1) for j in range(i)])

    def prefix_products(self, k: int, max_factors: int = Budgets().max_set_size) -> list:
        """[P_0(start), ..., P_k(start)], each the one before times one
        prefix; BudgetExceeded past max_factors factors in all."""
        st = self.start.structure
        out = [identity_element(st)]
        factors = 0
        for j in range(k):
            out.append(multiply(out[-1], from_simple(st, self.prefixes[self._index(j)])))
            factors += len(out[-1].factors)
            if factors > max_factors:
                raise BudgetExceeded(f"prefix products exceeded {max_factors} factors")
        return out


def _slide_until(x: GarsideElement, known, max_states: int):
    """Iterate cyclic sliding from x until the next state repeats one
    visited or lies in `known`.

    Returns (index, prefixes, last): index maps each visited state s^i(x)
    to i, in order; prefixes[i] = p(s^i(x)); last is the state the walk
    stopped at, in index when it repeats.  More than max_states states
    raise BudgetExceeded."""
    index = {x: 0}
    prefixes = []
    cur = x
    while True:
        if len(index) > max_states:
            raise BudgetExceeded(f"sliding trajectory exceeded {max_states} states")
        s = preferred_prefix(cur)
        prefixes.append(s)
        cur = conjugate_simple(cur, s)
        if cur in index or cur in known:
            return index, prefixes, cur
        index[cur] = len(index)


def sliding_trajectory(
    x: GarsideElement, max_states: int = Budgets().max_trajectory_states
) -> SlidingTrajectory:
    """Iterate cyclic sliding from x until a state repeats.

    Sliding orbits are always eventually periodic, so more than max_states
    states means an absurdly long transient or a bug; BudgetExceeded is
    raised instead of looping on."""
    index, prefixes, last = _slide_until(x, (), max_states)
    entry = index[last]
    return SlidingTrajectory(x, tuple(index), tuple(prefixes), entry, len(index) - entry)


def slide_to_circuit(x: GarsideElement, max_states: int = Budgets().max_trajectory_states):
    """Iterate sliding into the periodic part.

    Returns (representative, trajectory): the first recurrent state and the
    full trajectory, whose ``prefix_product(entry_index)`` conjugates x to
    the representative.
    """
    traj = sliding_trajectory(x, max_states)
    return traj.states[traj.entry_index], traj


def is_rigid(x: GarsideElement) -> bool:
    """x is rigid iff its preferred prefix is trivial."""
    return preferred_prefix(x) == x.structure.trivial
