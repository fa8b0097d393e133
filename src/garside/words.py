"""Braid word grammar shared by the CLI and the tests.

Whitespace-separated tokens:

    s<k>        the Artin generator sigma_k
    s<k>^-1     its inverse
    D           the Garside element of the chosen structure
    D^<k>       an integer power of it, e.g. D^-1 or D^3
    a(<t>,<s>)  the band generator a_{t,s} (dual structure only)
    [4,3,2,1]   a permutation literal, one-line notation (classical only)
    1           the empty word

Band generators are accepted for the classical structure too (expanded
into sigma letters), and sigma letters for the dual structure (mapped to
a_{k+1,k}); both expansions are exact, so mixed words are fine.
"""

from __future__ import annotations

import re

from .artin import ArtinStructure
from .bkl import BKLStructure
from .core import GarsideElement, GarsideStructure, left_normal_form


class WordError(ValueError):
    """Bad input: a token that failed to parse, with its position, or a
    bad flag value, with no position."""

    def __init__(self, message: str, position: int | None = None) -> None:
        super().__init__(message if position is None else f"token {position}: {message}")
        self.position = position


_SIGMA = re.compile(r"^s(\d+)(\^-1)?$")
_DELTA = re.compile(r"^D(?:\^(-?\d+))?$")
_BAND = re.compile(r"^a\((\d+),(\d+)\)(\^-1)?$")
_PERM = re.compile(r"^\[\d+(?:,\d+)*\]$")
# the canonical sigma and band spellings, the ones the token table holds:
# s<k> and a(<t>,<s>) with t > s, no leading zeros, each also with ^-1, so
# (n-1)(n+2) of them on n strands.  Compiled on the first miss, not at import
_CANONICAL = r"s[1-9][0-9]*(?:\^-1)?|a\(([1-9][0-9]*),([1-9][0-9]*)\)(?:\^-1)?"


def parse_word(st: GarsideStructure, text: str) -> GarsideElement:
    """Parse a word in the grammar above into a normal-form element.  The
    letters of each canonical sigma or band token are read from a table on
    the structure, filled the first time the token parses."""
    table = st._token_cache
    letters: list = []
    for idx, tok in enumerate(text.split(), start=1):
        word = table.get(tok)  # by hand: it holds canonical spellings only
        if word is None:
            word = _parse_token(st, tok, idx)
            # D, 1 and permutation literals skip the pattern
            m = tok[0] in "sa" and re.fullmatch(_CANONICAL, tok)
            if m and (m.group(1) is None or int(m.group(1)) > int(m.group(2))):
                table[tok] = word
        letters.extend(word)
    return left_normal_form(st, letters)


def _parse_token(st: GarsideStructure, tok: str, idx: int) -> list:
    if tok == "1":
        return []
    m = _DELTA.match(tok)
    if m:
        # one letter whatever k is; left_normal_form folds Delta^k in O(1)
        return [(st.delta, int(m.group(1)) if m.group(1) else 1)]
    m = _SIGMA.match(tok)
    if m:
        k, e = int(m.group(1)), -1 if m.group(2) else 1
        if not isinstance(st, (ArtinStructure, BKLStructure)):
            raise WordError("sigma letters need a braid structure", idx)
        if not 1 <= k < st.n:
            raise WordError(f"sigma index {k} out of range", idx)
        if isinstance(st, ArtinStructure):
            return [(st.atoms[k - 1], e)]
        return [(st.atom(k + 1, k), e)]
    m = _BAND.match(tok)
    if m:
        t, s, e = int(m.group(1)), int(m.group(2)), -1 if m.group(3) else 1
        if t < s:
            t, s = s, t
        if isinstance(st, BKLStructure):
            if not 1 <= s < t <= st.n:
                raise WordError(f"band indices ({t},{s}) out of range for {st.name}", idx)
            return [(st.atom(t, s), e)]
        if isinstance(st, ArtinStructure):
            if not 1 <= s < t <= st.n:
                raise WordError(f"band indices ({t},{s}) out of range", idx)
            word = [(st.atoms[k - 1], ek) for k, ek in band_to_sigma_word(t, s)]
            if e == -1:
                word = [(a, -ex) for a, ex in reversed(word)]
            return word
        raise WordError("band letters need a braid structure", idx)
    if _PERM.match(tok):
        if not isinstance(st, ArtinStructure):
            raise WordError("permutation literals need the classical structure", idx)
        images = tuple(int(v) for v in re.findall(r"\d+", tok))
        if sorted(images) != list(range(1, st.n + 1)):
            raise WordError(f"not a permutation of 1..{st.n}: {tok}", idx)
        return [(images, 1)]
    raise WordError(f"unrecognized token {tok!r}", idx)


def band_to_sigma_word(t: int, s: int) -> list:
    """a_{t,s} as a word of sigma letters (k, +-1):
    sigma_{t-1} ... sigma_{s+1} sigma_s sigma_{s+1}^-1 ... sigma_{t-1}^-1."""
    word = [(k, 1) for k in range(t - 1, s, -1)]
    word.append((s, 1))
    word += [(k, -1) for k in range(s + 1, t)]
    return word


def render_simple(st: GarsideStructure, s) -> str:
    """A simple element as a word string, canonical per structure.  Each
    simple is rendered once per structure and then read from its cache."""
    text = st._render_cache.get(s)  # by hand: core does not import words
    if text is None:
        text = st._render_cache[s] = _render_word(st, s)
    return text


def _render_word(st: GarsideStructure, s) -> str:
    if isinstance(st, ArtinStructure):
        word = st.simple_to_word(s)
        return " ".join(f"s{k}" for k in word) if word else "1"
    if isinstance(st, BKLStructure):
        bands = st.simple_to_bands(s)
        return " ".join(f"a({t},{u})" for t, u in bands) if bands else "1"
    return repr(s)


def render_element(x: GarsideElement) -> str:
    """An element as `D^p . f1 . f2 ...`; `1` for the identity."""
    st = x.structure
    parts = []
    if x.p:
        parts.append("D" if x.p == 1 else f"D^{x.p}")
    parts.extend(render_simple(st, f) for f in x.factors)
    return " . ".join(parts) if parts else "1"


def element_to_json(x: GarsideElement) -> dict:
    """JSON encoding: delta power plus raw factor arrays."""
    return {"p": x.p, "factors": [list(f) for f in x.factors]}
