"""The classical Garside structure on the braid group B_n.

Simple elements are permutation braids, encoded in one-line notation as a
tuple of images (strand i maps to s[i-1]).  Delta is the half twist
[n, n-1, ..., 1]; the atoms are the elementary crossings sigma_1 ... sigma_{n-1}.

Composition convention: (a * b)(i) = b(a(i)), so appending sigma_k on the
right swaps the *values* k and k+1.  Under this convention the prefix order
on simples is containment of inversion sets, the weak order (Epstein et al.,
*Word Processing in Groups*, ch. 9).  The order mask of s is its inversion
set, with bit j(j-1)/2 + i set for each pair of positions i < j with
s[i] > s[j].

The meet and the join are built in one insertion pass.  A pair of positions
i < j is a non-inversion of the meet iff j is reached from i by a chain of
increasing positions whose steps are non-inversions of a or of b: the
meet's non-inversions are the transitive closure of those of a and b.
Visiting i = n-2, ..., 0, keep `order`, the positions after i by increasing
value of the meet.  The positions reachable from i form an up-set of
`order`, and the first of them is reached in one step, so i goes just
before the first j in `order` with a[i] < a[j] or b[i] < b[j], or at the end
if there is none.  The join is the same pass with inversions for
non-inversions: `>` for `<`, building the order of decreasing values; it
first returns one argument when the two are comparable, two mask tests.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations
from math import factorial

from .core import GarsideStructure


def _compose(a: tuple, b: tuple) -> tuple:
    return tuple([b[i - 1] for i in a])


def _invert(a: tuple) -> tuple:
    inv = [0] * len(a)
    for i, v in enumerate(a):
        inv[v - 1] = i + 1
    return tuple(inv)


class ArtinStructure(GarsideStructure):
    """Descriptor for B_n with permutation-braid simples."""

    def __init__(self, n: int) -> None:
        if n < 2:
            raise ValueError("need at least 2 strands")
        super().__init__()
        self.n = n
        self.name = f"artin-{n}"
        self.trivial = tuple(range(1, n + 1))
        self.delta = tuple(range(n, 0, -1))
        self.norm_of_delta = n * (n - 1) // 2
        self.tau_order = 2
        self.atoms = tuple(self.atom(k) for k in range(1, n))

    def atom(self, k: int) -> tuple:
        """The crossing sigma_k as a permutation."""
        if not 1 <= k < self.n:
            raise ValueError(f"atom index {k} out of range for {self.name}")
        im = list(range(1, self.n + 1))
        im[k - 1], im[k] = im[k], im[k - 1]
        return tuple(im)

    # bound on this class as well, so that per-class instrumentation
    # (perfbench/tracer.py) finds the prefix test here
    leq = GarsideStructure.leq

    def meet_simple(self, a, b):
        """Greatest common prefix: insert each position before the first
        later one it must stay below (see the module docstring); then the
        r-th position of `order` gets the value r + 1."""
        n = self.n
        order = [n - 1]
        for i in range(n - 2, -1, -1):
            ai, bi = a[i], b[i]
            r = 0
            for j in order:
                if ai < a[j] or bi < b[j]:
                    break
                r += 1
            order.insert(r, i)
        u = [0] * n
        r = 1
        for j in order:
            u[j] = r
            r += 1
        return tuple(u)

    def join_simple(self, a, b):
        """Least common multiple: the larger of a comparable pair, else one insertion pass."""
        ma, mb = self.order_mask[a], self.order_mask[b]
        if not ma & ~mb:
            return b
        if not mb & ~ma:
            return a
        return self._join_pass(a, b)

    def _join_pass(self, a, b):
        """The meet's pass with `>` for `<`: `order` lists positions by
        decreasing value and the r-th gets n - r."""
        n = self.n
        order = [n - 1]
        for i in range(n - 2, -1, -1):
            ai, bi = a[i], b[i]
            r = 0
            for j in order:
                if ai > a[j] or bi > b[j]:
                    break
                r += 1
            order.insert(r, i)
        u = [0] * n
        r = n
        for j in order:
            u[j] = r
            r -= 1
        return tuple(u)

    def _complement(self, s):
        return self.lquot(s, self.delta)

    def _complement_inv(self, s):
        return _compose(self.delta, _invert(s))

    def prod(self, a, b):
        return _compose(a, b)

    def lquot(self, s, b):
        # s^-1 b in one pass, from (s^-1 b)(s(i)) = b(i)
        out = [0] * self.n
        for i, v in enumerate(s):
            out[v - 1] = b[i]
        return tuple(out)

    def _norm(self, s) -> int:
        return self.order_mask[s].bit_count()

    def _order_mask(self, s) -> int:
        m = 0
        bit = 1
        for j in range(1, self.n):
            sj = s[j]
            for i in range(j):
                if s[i] > sj:
                    m |= bit
                bit <<= 1
        return m

    def to_perm(self, s) -> tuple:
        """A permutation braid is encoded by its permutation."""
        return s

    def simples(self) -> tuple:
        # permutations of a sorted range come in lexicographic order
        return tuple(permutations(range(1, self.n + 1)))

    def simple_count(self) -> int:
        return factorial(self.n)

    def simple_to_word(self, s) -> list:
        """Canonical reduced word for a permutation braid.

        Letters are peeled off the right end, smallest applicable generator
        first; deterministic, and a staircase-shaped factorization for Delta.
        Stripping sigma_k moves only the values k and k+1, so no sigma_j with
        j < k-1 becomes applicable: the next scan starts at k-1, and the
        word is done when a scan reaches the end.
        """
        n = self.n
        pos = [0] * n  # pos[v-1]: the position of value v
        for i, v in enumerate(s):
            pos[v - 1] = i
        out: list = []
        k = 1
        while k < n:
            i, j = pos[k], pos[k - 1]  # positions of k+1 and k
            if i < j:
                # sigma_k is a final letter: strip it
                pos[k], pos[k - 1] = j, i
                out.append(k)
                k = max(k - 1, 1)
            else:
                k += 1
        out.reverse()
        return out


@lru_cache(maxsize=None)
def artin_structure(n: int) -> ArtinStructure:
    """Shared descriptor instance for B_n (memoized, one per n)."""
    return ArtinStructure(n)
