"""The band-generator (dual) Garside structure on B_n.

Simple elements are non-crossing partitions of {1..n}, encoded as a tuple
of block labels of length n with blocks numbered 0, 1, ... in order of
their minimal elements.  The Garside element is the n-cycle
delta = sigma_{n-1} ... sigma_1; the atoms are the band generators a_{t,s}
(1 <= s < t <= n), the two-element blocks {s, t}.

A block {i_1 < ... < i_k} corresponds to the braid
a_{i_k, i_{k-1}} ... a_{i_2, i_1}, whose underlying permutation is the
cycle i_1 -> i_2 -> ... -> i_k -> i_1.  Products, quotients and the
complement are computed through the underlying permutations, which
realizes the Kreweras complement (this is validated exhaustively in the
tests rather than taken on faith).  The permutation view is memoised both
ways per structure: a partition's permutation and its inverse are built
once, and a permutation's partition is built, and checked to be
increasing on every cycle and non-crossing, once.

Divisibility of simples, as a prefix and as a suffix, is refinement of
partitions.  The order mask of a partition is its same-block relation: bit
`_band_index(t, s)` is set iff s and t share a block, so the atom a_{t,s}
is its own bit and a <= b iff a's mask is a subset of b's.  The meet is
the blockwise meet, whose relation is the intersection of the two: one AND
of the masks, decoded to labels through a per-mask cache that checks each
decoded partition once.  The join is partial^-1 of the meet of the
complements, so it ANDs the masks of the two complements and reads
partial^-1 of the result from a second per-mask cache.  Every cache is
keyed by simples or by their masks, so each holds at most Catalan(n)
entries.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

from .core import GarsideStructure, VerificationError
from .artin import _compose, _invert


def _canonical_labels(raw) -> tuple:
    """Relabel an arbitrary label sequence by first occurrence."""
    seen: dict = {}
    out = []
    for v in raw:
        if v not in seen:
            seen[v] = len(seen)
        out.append(seen[v])
    return tuple(out)


def _band_index(t: int, s: int) -> int:
    """Index of a_{t,s} in BKLStructure.atoms, which lists the bands by t,
    then s."""
    return (t - 1) * (t - 2) // 2 + s - 1


def blocks_of(s: tuple) -> list:
    """Blocks of a partition encoding, as lists of 1-based elements,
    ordered by minimal element."""
    out: list = []
    for i, lab in enumerate(s):
        while lab >= len(out):
            out.append([])
        out[lab].append(i + 1)
    return out


def is_noncrossing(s: tuple) -> bool:
    """True iff no two blocks of the partition cross.

    Two blocks cross iff an arc of one crosses an arc of the other, an
    arc joining consecutive elements of a block: if a < b < c < d with
    a, c in X and b, d in Y, then b lies between consecutive elements of X
    on the way from a to c, and the arcs of Y from b to d leave that gap.
    """
    last: dict = {}
    arcs = []
    for i, lab in enumerate(s):
        if lab in last:
            arcs.append((last[lab], i))
        last[lab] = i
    for i, j in arcs:
        for k, m in arcs:
            if i < k < j < m:
                return False
    return True


class BKLStructure(GarsideStructure):
    """Descriptor for B_n with non-crossing-partition simples."""

    def __init__(self, n: int) -> None:
        if n < 2:
            raise ValueError("need at least 2 strands")
        super().__init__()
        self.n = n
        self.name = f"bkl-{n}"
        self.trivial = tuple(range(n))
        self.delta = (0,) * n
        self.norm_of_delta = n - 1
        self.tau_order = n
        self.atoms = tuple(
            self.atom(t, s) for t in range(2, n + 1) for s in range(1, t)
        )
        self._delta_perm = tuple(range(2, n + 1)) + (1,)  # i -> i+1 cyclically
        self._simples: tuple | None = None
        self._perm_cache: dict = {}
        self._perm_inv_cache: dict = {}
        self._from_perm_cache: dict = {}
        self._from_mask_cache: dict = {}
        self._complement_masks: dict = {}  # s -> order_mask(partial(s))
        self._join_cache: dict = {}  # mask of partial(a) /\ partial(b) -> a v b

    def atom(self, t: int, s: int) -> tuple:
        """The band generator a_{t,s} as a partition (block {s,t})."""
        if not 1 <= s < t <= self.n:
            raise ValueError(f"band indices ({t},{s}) out of range for {self.name}")
        raw = list(range(self.n))
        raw[t - 1] = raw[s - 1]
        return _canonical_labels(raw)

    # -- permutation view ---------------------------------------------------
    # Memoised both ways.  The arguments are simples, and from_perm caches
    # a permutation only once it has passed its checks, so each cache holds
    # at most Catalan(n) entries.

    def to_perm(self, s: tuple) -> tuple:
        """Underlying permutation: each block an increasing cycle."""
        perm = self._perm_cache.get(s)
        if perm is None:
            im = list(range(1, self.n + 1))
            for b in blocks_of(s):
                for i in range(len(b)):
                    im[b[i] - 1] = b[(i + 1) % len(b)]
            perm = self._perm_cache[s] = tuple(im)
        return perm

    def _perm_inv(self, s: tuple) -> tuple:
        """Inverse of the underlying permutation of s."""
        perm = self._perm_inv_cache.get(s)
        if perm is None:
            perm = self._perm_inv_cache[s] = _invert(self.to_perm(s))
        return perm

    def from_perm(self, perm: tuple) -> tuple:
        """Partition whose blocks are the cycles of perm.

        Raises VerificationError if some cycle does not traverse its
        support in increasing order or the resulting partition crosses;
        within this structure's arithmetic that never happens, so it
        signals a program fault.
        """
        s = self._from_perm_cache.get(perm)
        if s is not None:
            return s
        n = self.n
        labels = [-1] * n
        for start in range(1, n + 1):
            if labels[start - 1] != -1:
                continue
            cyc = [start]
            j = perm[start - 1]
            while j != start:
                cyc.append(j)
                j = perm[j - 1]
            if cyc != sorted(cyc):
                raise VerificationError("cycle is not increasing; not a simple element")
            for i in cyc:
                labels[i - 1] = start
        s = _canonical_labels(labels)
        if not is_noncrossing(s):
            raise VerificationError("crossing partition; not a simple element")
        self._from_perm_cache[perm] = s
        return s

    # -- descriptor contract -------------------------------------------------

    # bound on this class as well, so that per-class instrumentation
    # (perfbench/tracer.py) finds the prefix test here
    leq = GarsideStructure.leq

    def meet_simple(self, a, b):
        # the blockwise meet: its same-block relation is the AND of the two
        m = self.order_mask(a) & self.order_mask(b)
        s = self._from_mask_cache.get(m)
        return s if s is not None else self.from_mask(m)

    def join_simple(self, a, b):
        # a <= c iff partial(c) is a suffix of partial(a), so the join is
        # partial^-1 of the greatest common suffix of the complements.  The
        # suffix order is refinement too: u is a prefix (suffix) of w iff
        # norm(u) plus the reflection length of u^-1 w (of w u^-1) is
        # norm(w), and those two permutations are conjugate.  So that
        # suffix is the blockwise meet, whose mask is the AND of the masks
        # of the complements.
        masks = self._complement_masks
        ma, mb = masks.get(a), masks.get(b)
        if ma is None or mb is None:
            ma = masks[a] = self.order_mask(self.complement(a))
            mb = masks[b] = self.order_mask(self.complement(b))
        m = ma & mb
        s = self._join_cache.get(m)
        if s is None:
            s = self._join_cache[m] = self.complement_inv(self.from_mask(m))
        return s

    def from_mask(self, m: int) -> tuple:
        """Partition whose same-block relation is the order mask m.

        Raises VerificationError unless m is the mask of a non-crossing
        partition; within this structure's arithmetic that never happens,
        so it signals a program fault.
        """
        s = self._from_mask_cache.get(m)
        if s is not None:
            return s
        labels: list = []
        for j in range(self.n):
            # bits j(j-1)/2 .. j(j-1)/2 + j - 1: the pairs (i, j), i < j
            row = m >> (j * (j - 1) // 2) & ((1 << j) - 1)
            labels.append(labels[(row & -row).bit_length() - 1] if row else j)
        s = _canonical_labels(labels)
        if not is_noncrossing(s) or self._order_mask(s) != m:
            raise VerificationError("mask is not a non-crossing partition")
        self._from_mask_cache[m] = s
        return s

    def _complement(self, s):
        return self.from_perm(_compose(self._perm_inv(s), self._delta_perm))

    def _complement_inv(self, s):
        return self.from_perm(_compose(self._delta_perm, self._perm_inv(s)))

    def prod(self, a, b):
        return self.from_perm(_compose(self.to_perm(a), self.to_perm(b)))

    def lquot(self, s, b):
        return self.from_perm(_compose(self._perm_inv(s), self.to_perm(b)))

    def _norm(self, s) -> int:
        return self.n - len(set(s))

    def _order_mask(self, s) -> int:
        m = 0
        for b in blocks_of(s):
            for k, t in enumerate(b):
                for u in b[:k]:
                    m |= 1 << _band_index(t, u)
        return m

    def simples(self) -> tuple:
        """The Catalan(n) non-crossing partitions, generated directly in
        sorted order: a depth-first walk in label order keeps the stack of
        blocks that are still open.  Position i may join any open block b,
        which closes the blocks above b (a later element of one would cross
        b), or start a new block on top."""
        if self._simples is None:
            n = self.n
            out = []

            def walk(labels: tuple, open_: tuple, blocks: int) -> None:
                if len(labels) == n:
                    out.append(labels)
                    return
                for k, b in enumerate(open_):
                    walk(labels + (b,), open_[: k + 1], blocks)
                walk(labels + (blocks,), open_ + (blocks,), blocks + 1)

            walk((), (), 0)
            self._simples = tuple(out)
        return self._simples

    def simple_count(self) -> int:
        # Catalan(n) non-crossing partitions
        return comb(2 * self.n, self.n) // (self.n + 1)

    # -- word conversions ----------------------------------------------------

    def simple_to_bands(self, s) -> list:
        """Canonical band-generator word: per block {i_1 < ... < i_k}, the
        descending product (i_k,i_{k-1}), ..., (i_2,i_1); blocks in order of
        minimal element."""
        out = []
        for b in blocks_of(s):
            for i in range(len(b) - 1, 0, -1):
                out.append((b[i], b[i - 1]))
        return out


@lru_cache(maxsize=None)
def bkl_structure(n: int) -> BKLStructure:
    """Shared descriptor instance for the dual structure on B_n."""
    return BKLStructure(n)
