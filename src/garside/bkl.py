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
tests rather than taken on faith).  The quotient s^-1 b is one pass over
the two permutations, and the complement is the quotient s^-1 Delta.
Each partition and permutation is converted, and checked to be increasing
on every cycle and non-crossing, once: the two conversion memos share one
permutation object per simple.  Every conversion, to and from
permutations and order masks, is one pass over the points that writes
canonical labels as it finds the blocks, and the crossing test is one
stack pass over canonical labels.

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
entries.  Each is a core ``Memo``, except the from_perm memo: it is keyed
by the one permutation object per simple, so it is kept by hand.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

from .core import GarsideStructure, Memo, VerificationError
from .artin import _compose, _invert


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

    s must carry canonical labels: 0 first, and a new label is the count
    of labels seen.  One pass keeps the stack of open blocks in label
    order, 0 at the bottom.  A block that returns closes the blocks above
    it, each of which has an element since its previous one; a closed
    block that returns crosses its closer.
    """
    stack: list = []
    seen = 0
    for lab in s:
        if lab == seen:
            stack.append(lab)
            seen += 1
        else:
            while stack[-1] > lab:
                stack.pop()
            if stack[-1] != lab:
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
        self._perm_cache = Memo(self._to_perm)
        self._from_perm_cache: dict = {}  # by hand: keyed by the one permutation per simple
        self._from_mask_cache = Memo(self._from_mask)
        self._complement_masks = Memo(lambda s: self.order_mask(self.complement(s)))
        self._join_cache = Memo(lambda m: self.complement_inv(self.from_mask(m)))
        self.atoms = tuple(self.from_mask(1 << i) for i in range(n * (n - 1) // 2))

    def atom(self, t: int, s: int) -> tuple:
        """The band generator a_{t,s} as a partition (block {s,t})."""
        if not 1 <= s < t <= self.n:
            raise ValueError(f"band indices ({t},{s}) out of range for {self.name}")
        return self.from_mask(1 << _band_index(t, s))

    # -- permutation view ---------------------------------------------------
    # Memoised both ways, with one permutation object per simple: from_perm
    # keys its cache by the object to_perm returns.  The arguments are
    # simples, and from_perm caches a permutation only once it has passed
    # its checks, so each cache holds at most Catalan(n) entries.

    def to_perm(self, s: tuple) -> tuple:
        """Underlying permutation: each block an increasing cycle."""
        return self._perm_cache[s]

    def _to_perm(self, s: tuple) -> tuple:
        # last[lab] is the latest element of block lab, which maps to the
        # block's first; a new block starts as a fixed point
        im = list(range(1, self.n + 1))
        last: list = []
        for i, lab in enumerate(s):
            if lab == len(last):
                last.append(i)
            j, last[lab] = last[lab], i
            im[i], im[j] = im[j], i + 1
        return tuple(im)

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
        # the k-th cycle met, walked from its minimum, gets label k
        labels = [-1] * self.n
        k = 0
        for start in range(self.n):
            if labels[start] < 0:
                labels[start] = k
                i, j = start, perm[start] - 1
                while j != start:
                    if j < i:
                        raise VerificationError("cycle is not increasing; not a simple element")
                    labels[j] = k
                    i, j = j, perm[j] - 1
                k += 1
        s = tuple(labels)
        if not is_noncrossing(s):
            raise VerificationError("crossing partition; not a simple element")
        self._from_perm_cache[self._perm_cache.setdefault(s, perm)] = s
        return s

    # -- descriptor contract -------------------------------------------------

    # bound on this class as well, so that per-class instrumentation
    # (perfbench/tracer.py) finds the prefix test here
    leq = GarsideStructure.leq

    def meet_simple(self, a, b):
        # the blockwise meet: its same-block relation is the AND of the two
        return self._from_mask_cache[self._order_mask_cache[a] & self._order_mask_cache[b]]

    def join_simple(self, a, b):
        # a <= c iff partial(c) is a suffix of partial(a), so the join is
        # partial^-1 of the greatest common suffix of the complements.  The
        # suffix order is refinement too: u is a prefix (suffix) of w iff
        # norm(u) plus the reflection length of u^-1 w (of w u^-1) is
        # norm(w), and those two permutations are conjugate.  So that
        # suffix is the blockwise meet, whose mask is the AND of the masks
        # of the complements.
        masks = self._complement_masks
        return self._join_cache[masks[a] & masks[b]]

    def from_mask(self, m: int) -> tuple:
        """Partition whose same-block relation is the order mask m.

        Raises VerificationError unless m is the mask of a non-crossing
        partition; within this structure's arithmetic that never happens,
        so it signals a program fault.
        """
        return self._from_mask_cache[m]

    def _from_mask(self, m: int) -> tuple:
        labels: list = []
        k = 0  # the next free label
        for j in range(self.n):
            # bits j(j-1)/2 .. j(j-1)/2 + j - 1: the pairs (i, j), i < j;
            # j takes the label of the least i in its block, or a free one
            row = m >> (j * (j - 1) // 2) & ((1 << j) - 1)
            labels.append(labels[(row & -row).bit_length() - 1] if row else k)
            k += not row
        s = tuple(labels)
        if not is_noncrossing(s) or self._order_mask(s) != m:
            raise VerificationError("mask is not a non-crossing partition")
        return s

    def _complement(self, s):
        return self.lquot(s, self.delta)

    def _complement_inv(self, s):
        return self.from_perm(_compose(self.to_perm(self.delta), _invert(self.to_perm(s))))

    def prod(self, a, b):
        return self.from_perm(_compose(self.to_perm(a), self.to_perm(b)))

    def lquot(self, s, b):
        # s^-1 b in one pass, from (s^-1 b)(s(i)) = b(i)
        out = [0] * self.n
        for v, w in zip(self.to_perm(s), self.to_perm(b)):
            out[v - 1] = w
        return self.from_perm(tuple(out))

    def _norm(self, s) -> int:
        return self.n - len(set(s))

    def _order_mask(self, s) -> int:
        # rows[lab] has bit i per element i + 1 of block lab seen so far
        m = 0
        rows: list = []
        for j, lab in enumerate(s):
            if lab == len(rows):
                rows.append(0)
            m |= rows[lab] << (j * (j - 1) // 2)
            rows[lab] |= 1 << j
        return m

    def simples(self) -> tuple:
        """The Catalan(n) non-crossing partitions, generated directly in
        sorted order: a depth-first walk in label order keeps the stack of
        blocks that are still open.  Position i may join any open block b,
        which closes the blocks above b (a later element of one would cross
        b), or start a new block on top."""
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
        return tuple(out)

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
