"""Exhaustive class statistics for elements of summit canonical length 1.

For a structure on B_n and a Delta power i, every element Delta^i s with
s a simple element other than 1 and Delta has summit infimum i and summit
canonical length 1: its exponent sum lies strictly between those of
Delta^i and Delta^(i+1), so no conjugate is a power of Delta, and sliding
never lowers inf or raises sup.  These elements are grouped into
conjugacy classes, and per class the sizes of the super summit set and
of the set of sliding circuits are recorded.

At canonical length 1 the super summit set consists entirely of elements
Delta^i t, so classes can be enumerated by marking off simples as their
classes are computed.  The set of sliding circuits lies inside the super
summit set, so it is read off the latter by the membership test.
"""

from __future__ import annotations

from collections import namedtuple

from .circuits import compute_sss, sliding_circuits_in_sss
from .core import (
    BudgetExceeded,
    Budgets,
    GarsideStructure,
    VerificationError,
    delta_power,
    from_simple,
    multiply,
)
from .sliding import slide_to_circuit


class ClassStatistics(namedtuple("ClassStatistics", "representative sss_size sc_size")):
    """One conjugacy class: its canonical representative and set sizes."""

    __slots__ = ()

    @property
    def ratio(self) -> float:
        return self.sss_size / self.sc_size


# One table row: aggregate statistics over all classes of one (n, i).
StatisticsRow = namedtuple("StatisticsRow", "structure n i classes max_sss max_sc max_ratio "
                           "cmean_sss cmean_sc cmean_ratio emean_sss emean_sc emean_ratio")


def enumerate_length_one_classes(
    st: GarsideStructure, i: int = 0, budgets: Budgets = Budgets()
) -> list:
    """All conjugacy classes with summit infimum i and summit canonical
    length 1, as ClassStatistics sorted by class representative."""
    if st.simple_count() > budgets.max_set_size:  # refused before enumerating
        raise BudgetExceeded(f"{st.name} has {st.simple_count()} simple elements, "
                             f"more than the set budget of {budgets.max_set_size}")
    results = []
    assigned: set = set()
    for s in st.simples():
        if s in assigned or s == st.trivial or s == st.delta:
            continue
        x = multiply(delta_power(st, i), from_simple(st, s))
        rep, _ = slide_to_circuit(x, budgets.max_trajectory_states)
        if rep.inf != i or rep.canonical_length != 1:
            raise VerificationError(f"Delta^{i} s slid to inf {rep.inf}, length {rep.canonical_length}")
        sss = compute_sss(rep, budgets, start=rep)
        sc = sliding_circuits_in_sss(sss, budgets)
        assigned.update(v.factors[0] for v in sss)
        representative = min(sc, key=lambda v: v.sort_key())
        results.append(ClassStatistics(representative, len(sss), len(sc)))
    results.sort(key=lambda c: c.representative.sort_key())
    return results


def statistics_row(
    structure_label: str, n: int, i: int, classes: list
) -> StatisticsRow:
    """Aggregate a class list; element means weight each class by its
    super-summit-set size.  An empty class list has no row."""
    if not classes:
        raise ValueError(f"no row for {structure_label} n={n} i={i}: empty class list")
    k = len(classes)
    total_sss = sum(c.sss_size for c in classes)
    return StatisticsRow(
        structure=structure_label,
        n=n,
        i=i,
        classes=k,
        max_sss=max(c.sss_size for c in classes),
        max_sc=max(c.sc_size for c in classes),
        max_ratio=max(c.ratio for c in classes),
        cmean_sss=total_sss / k,
        cmean_sc=sum(c.sc_size for c in classes) / k,
        cmean_ratio=sum(c.ratio for c in classes) / k,
        emean_sss=sum(c.sss_size * c.sss_size for c in classes) / total_sss,
        emean_sc=sum(c.sss_size * c.sc_size for c in classes) / total_sss,
        emean_ratio=sum(c.sss_size * c.ratio for c in classes) / total_sss,
    )


CSV_HEADER = ",".join(StatisticsRow._fields)


def _fmt(v) -> str:
    """Floats to 6 significant digits; integers and the structure label as
    they are."""
    return format(v, ".6g") if isinstance(v, float) else str(v)


def row_to_csv(row: StatisticsRow) -> str:
    return ",".join(map(_fmt, row))


def emit_csv(rows: list) -> str:
    return "\n".join([CSV_HEADER] + [row_to_csv(r) for r in rows]) + "\n"


def emit_json(rows: list) -> str:
    """Rows as JSON objects, floats rounded as in the CSV."""
    import json  # only the --format json path loads it

    out = [{c: float(_fmt(v)) if isinstance(v, float) else v for c, v in r._asdict().items()}
           for r in rows]
    return json.dumps(out, indent=2) + "\n"
