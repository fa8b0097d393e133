"""Desk-scale oracles that no command calls: minimal conjugators into the
invariant sets by breadth-first search, and the conjugacy decision."""

from garside.circuits import BudgetExceeded, solve_csp
from garside.core import (
    GarsideElement,
    VerificationError,
    conjugate,
    from_simple,
    identity_element,
    multiply,
)
from garside.sliding import in_sc, slide_to_circuit

MAX_NORM = 20


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
    rep, _, _ = slide_to_circuit(x)
    inf_s, ell_s = rep.inf, rep.canonical_length

    def member(y: GarsideElement) -> bool:
        return y.inf == inf_s and y.canonical_length == ell_s

    return minimal_conjugator(x, member, max_norm)


def solve_cdp(x: GarsideElement, y: GarsideElement) -> bool:
    """Conjugacy decision: do x and y lie in the same conjugacy class?"""
    return solve_csp(x, y) is not None
