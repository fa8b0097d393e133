"""Each answer checked against the other Garside structure on B_n.

The classical and the dual structure are two normal forms for one group,
so every answer about braids given as sigma words must agree between
them: the conjugacy decision, the class invariants, each witness (spelled
as sigma letters and read in the other structure) and the normal forms
themselves, sent through the other structure and back.
"""

import random

import pytest

from garside.artin import ArtinStructure, artin_structure
from garside.bkl import bkl_structure
from garside.circuits import _class_invariants, _tau_orbit, compute_scg, solve_csp
from garside.core import conjugate, multiply
from garside.sliding import slide_to_circuit
from garside.words import band_to_sigma_word, parse_word


def spell(letters):
    """Sigma letters (k, +-1) as word text."""
    return " ".join(f"s{k}" if e == 1 else f"s{k}^-1" for k, e in letters) or "1"


def sigma_text(x):
    """x as a word of sigma letters.  A rendered `D` is the Garside element
    of x's own structure (the half twist or the n-cycle), so it is spelled
    out too."""
    st = x.structure
    if isinstance(st, ArtinStructure):
        delta = st.simple_to_word(st.delta)
        factors = [[(k, 1) for k in st.simple_to_word(f)] for f in x.factors]
    else:
        delta = range(st.n - 1, 0, -1)  # sigma_{n-1} ... sigma_1
        factors = [[letter for t, u in st.simple_to_bands(f) for letter in band_to_sigma_word(t, u)]
                   for f in x.factors]
    power = [(k, 1) for k in delta] if x.p > 0 else [(k, -1) for k in reversed(delta)]
    return spell(power * abs(x.p) + [letter for f in factors for letter in f])


def summit_invariants(x):
    rep = slide_to_circuit(x)[0]
    return rep.inf, rep.canonical_length


def cross_pairs(seed=44):
    """For n = 4..7, triples (xs, ys, planted): x and y are sigma words,
    each parsed in both structures.  x runs over 50 positive words of 7
    letters; x is paired with a planted conjugate c^-1 x c, c a mixed-sign
    word of 3 letters, and with the next word that has the same class
    invariants and the same summit invariants in both structures, so that
    these pairs reach the graph."""
    rng = random.Random(seed)
    pairs = []
    for n in (4, 5, 6, 7):
        sts = (artin_structure(n), bkl_structure(n))
        groups: dict = {}
        for _ in range(50):
            w = [(rng.randrange(1, n), 1) for _ in range(7)]
            c = [(rng.randrange(1, n), rng.choice((1, -1))) for _ in range(3)]
            c_inv = [(k, -e) for k, e in reversed(c)]
            xs = [parse_word(st, spell(w)) for st in sts]
            pairs.append((xs, [parse_word(st, spell(c_inv + w + c)) for st in sts], True))
            key = (_class_invariants(xs[0]), *map(summit_invariants, xs))
            groups.setdefault(repr(key), []).append(xs)
        for group in groups.values():
            pairs.extend((xs, ys, False) for xs, ys in zip(group, group[1:]))
    return pairs


def check_pair(xs, ys):
    """Checks that both structures agree on the pair (x, y), each parsed in
    both: the normal forms, sent to the other structure as sigma words and
    back, the class invariants, the conjugacy answer and each witness, read
    in the other structure.  Returns True iff x and y are conjugate."""
    for pair in (xs, ys):
        for e, other in (pair, pair[::-1]):
            there = parse_word(other.structure, sigma_text(e))
            assert there == other
            assert parse_word(e.structure, sigma_text(there)) == e
    invariants = [(_class_invariants(x), _class_invariants(y)) for x, y in zip(xs, ys)]
    assert invariants[0] == invariants[1]
    answers = [solve_csp(x, y) for x, y in zip(xs, ys)]
    assert (answers[0] is None) == (answers[1] is None)
    if answers[0] is None:
        return False
    # each witness conjugates x to y in the other structure
    for witness, x, y in zip(answers, xs[::-1], ys[::-1]):
        assert conjugate(x, parse_word(x.structure, sigma_text(witness))) == y
    return True


def test_both_structures_give_the_same_answers():
    hard_no = 0
    for xs, ys, planted in cross_pairs():
        if check_pair(xs, ys):
            continue
        assert not planted
        if _class_invariants(xs[0]) == _class_invariants(ys[0]) and all(
                summit_invariants(x) == summit_invariants(y) for x, y in zip(xs, ys)):
            hard_no += 1
    assert hard_no >= 30


def circuit_targets(y):
    """The states of the circuit y slides to and their tau-images: the
    targets solve_csp walks the graph for."""
    traj = slide_to_circuit(y)[1]
    return {t for s in traj.states[traj.entry_index:] for t in _tau_orbit(s)}


def deepest_vertex(x):
    """The vertex v of the sliding circuits graph of x whose circuit and
    tau-images the walk from x meets last: the earliest of them in the order
    the walk finds vertices is as late as it can be."""
    order = {v: i for i, v in enumerate(compute_scg(x).parent)}
    met: dict = {}
    for v in order:
        if v not in met:
            group = circuit_targets(v)
            met.update(dict.fromkeys(group, min(order[t] for t in group)))
    return max(order, key=met.__getitem__)


def deep_pairs(seed=51):
    """Planted YES pairs whose targets lie deep in the graph, as triples
    (xs, ys, k): for 20 fixed-seed classes each of classical B_5 and dual
    B_5 and B_6, x is a mixed-sign word of 12 letters and y = v^w, v the
    deepest vertex of the class in that structure, sts[k], and w a
    mixed-sign word of 2 letters; x and y are parsed in both structures."""
    rng = random.Random(seed)
    for n, k in ((5, 0), (5, 1), (6, 1)):
        sts = (artin_structure(n), bkl_structure(n))
        for _ in range(20):
            word = spell([(rng.randrange(1, n), rng.choice((1, 1, -1))) for _ in range(12)])
            w = [(rng.randrange(1, n), rng.choice((1, -1))) for _ in range(2)]
            v = deepest_vertex(parse_word(sts[k], word))
            text = " ".join((spell([(i, -e) for i, e in reversed(w)]), sigma_text(v), spell(w)))
            yield [parse_word(st, word) for st in sts], [parse_word(st, text) for st in sts], k


def test_planted_pairs_deep_in_the_graph_get_the_same_answers():
    """Every planted pair is found conjugate by both structures, and at
    least 10 of the 60 walks, each as long as the solver's walk in the
    structure that chose v, pass 10 vertices or more before a target."""
    walks = []
    for xs, ys, k in deep_pairs():
        assert check_pair(xs, ys)
        walks.append(len(compute_scg(xs[k], targets=circuit_targets(ys[k])).parent))
    assert sum(walked >= 10 for walked in walks) >= 10, walks


def test_elements_of_different_structures_do_not_mix():
    """multiply and solve_csp refuse two elements over different
    structures, even two descriptors of the same kind and size."""
    for st, other in ((artin_structure(4), bkl_structure(4)),
                      (artin_structure(4), ArtinStructure(4))):
        x, y = parse_word(st, "s1 s2"), parse_word(other, "s1 s2")
        with pytest.raises(ValueError, match="different structures"):
            multiply(x, y)
        with pytest.raises(ValueError, match="different structures"):
            solve_csp(x, y)
