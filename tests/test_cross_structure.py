"""Each answer checked against the other Garside structure on B_n.

The classical and the dual structure are two normal forms for one group,
so every answer about braids given as sigma words must agree between
them: the conjugacy decision, the class invariants, each witness (spelled
as sigma letters and read in the other structure) and the normal forms
themselves, sent through the other structure and back.
"""

import random

from garside.artin import ArtinStructure, artin_structure
from garside.bkl import bkl_structure
from garside.circuits import _class_invariants, solve_csp
from garside.core import conjugate
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


def test_both_structures_give_the_same_answers():
    hard_no = 0
    for xs, ys, planted in cross_pairs():
        # normal forms: to the other structure as sigma words, and back
        for pair in (xs, ys):
            for e, other in (pair, pair[::-1]):
                there = parse_word(other.structure, sigma_text(e))
                assert there == other
                assert parse_word(e.structure, sigma_text(there)) == e
        invariants = [(_class_invariants(x), _class_invariants(y)) for x, y in zip(xs, ys)]
        assert invariants[0] == invariants[1]
        answers = [solve_csp(x, y) for x, y in zip(xs, ys)]
        assert (answers[0] is None) == (answers[1] is None)
        assert answers[0] is not None or not planted
        if answers[0] is not None:
            # each witness conjugates x to y in the other structure
            for witness, x, y in zip(answers, xs[::-1], ys[::-1]):
                assert conjugate(x, parse_word(x.structure, sigma_text(witness.conjugator))) == y
        elif invariants[0][0] == invariants[0][1] and all(
                summit_invariants(x) == summit_invariants(y) for x, y in zip(xs, ys)):
            hard_no += 1
    assert hard_no >= 30
