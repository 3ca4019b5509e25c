"""Rectangular (m,n)-Dyck paths, parking functions, and their enumerators.

An (m,n)-Dyck path is encoded by its word: a weakly increasing sequence
a_1 <= ... <= a_n of column indices with n*a_k <= (k-1)*m, where a_k is
the column of the south step at height k-1.  The staircase word
d_k = floor((k-1)m/n) is the unique area-zero path, and
area = sum_k (d_k - a_k).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd

from . import shapes, symfun
from .coeffs import QTScalar
from .symfun import Alphabet, SymFun, plethys_whole


@dataclass(frozen=True, slots=True)
class DyckPath:
    m: int
    n: int
    word: tuple

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise ValueError("m, n must be positive")
        w = tuple(self.word)
        object.__setattr__(self, "word", w)
        if len(w) != self.n:
            raise ValueError(f"word length {len(w)} != n = {self.n}")
        if any(a > b for a, b in zip(w, w[1:])) or (w and w[0] < 0):
            raise ValueError(f"word {w} not weakly increasing from 0")
        for k, a in enumerate(w, start=1):
            if self.n * a > (k - 1) * self.m:
                raise ValueError(f"word {w} crosses the diagonal at position {k}")


@dataclass(frozen=True, slots=True)
class ParkingFun:
    path: DyckPath
    labels: tuple  # labels[k-1] is the label of the south step at height k-1

    def __post_init__(self):
        if sorted(self.labels) != list(range(1, self.path.n + 1)):
            raise ValueError("labels must be a permutation of 1..n")
        w = self.path.word
        for k in range(1, self.path.n):
            if w[k] == w[k - 1] and self.labels[k] < self.labels[k - 1]:
                raise ValueError("labels must increase up each column")

    def word(self):
        """w_i = column of the step labeled i (the displayed form)."""
        cols = [0] * self.path.n
        for k, lab in enumerate(self.labels):
            cols[lab - 1] = self.path.word[k]
        return tuple(cols)


def staircase(m: int, n: int) -> DyckPath:
    return DyckPath(m, n, tuple((k - 1) * m // n for k in range(1, n + 1)))


def enumerate_paths(m: int, n: int, returns_at=None):
    """All (m,n)-Dyck paths in lexicographic word order (iterative odometer).

    With returns_at (a composition of gcd(m,n)), keep only paths whose
    interior-return composition equals it; any other returns_at raises
    ValueError.
    """
    if returns_at is not None:
        returns_at = tuple(returns_at)
        d = gcd(m, n)
        if any(a < 1 for a in returns_at) or sum(returns_at) != d:
            raise ValueError(f"returns {returns_at} is not a composition of gcd(m, n) = {d}")
    ceilings = [(k - 1) * m // n for k in range(1, n + 1)]
    word = [0] * n
    out = []
    while True:
        p = DyckPath(m, n, tuple(word))
        if returns_at is None or returns_comp(p) == returns_at:
            out.append(p)
        k = n - 1
        while k >= 0 and word[k] >= ceilings[k]:
            k -= 1
        if k < 0:
            return out
        word[k] += 1
        for j in range(k + 1, n):
            word[j] = word[k]


def area(p: DyckPath) -> int:
    return sum((k - 1) * p.m // p.n - a for k, a in enumerate(p.word, start=1))


def riser_comp(p: DyckPath):
    """Multiplicities of the word's entries, in increasing entry order."""
    out = []
    prev = None
    for a in p.word:
        if out and a == prev:
            out[-1] += 1
        else:
            out.append(1)
        prev = a
    return tuple(out)


def return_positions(p: DyckPath):
    """Interior positions k > 1 where the path touches the diagonal."""
    return [k for k, a in enumerate(p.word, start=1) if k > 1 and p.n * a == (k - 1) * p.m]


def returns_comp(p: DyckPath):
    """Composition of d = gcd(m,n) encoding where the path returns."""
    d = gcd(p.m, p.n)
    b = p.n // d
    subset = {(k - 1) // b for k in return_positions(p)}
    return shapes.subset_to_composition(d, subset)


def path_enumerator(m: int, n: int, returns_at=None) -> SymFun:
    """sum over paths of q^area * e_(riser composition)."""
    return symfun.e_q_counts(Counter(
        (tuple(sorted(riser_comp(p), reverse=True)), area(p))
        for p in enumerate_paths(m, n, returns_at)
    ))


def primitive_enumerator(m: int, n: int) -> SymFun:
    """q^area-weighted riser enumerator over paths with no interior return."""
    return path_enumerator(m, n, returns_at=(gcd(m, n),))


# ---------------------------------------------------------------------------
# Bizley enumerators at q = t = 1
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _bizley_generator(a: int, b: int, k: int) -> SymFun:
    """(1/a) e_(bk)[a k x], the q = t = 1 shadow of the basic operators."""
    f = plethys_whole(symfun.e_(b * k), Alphabet.scaled(QTScalar(a * k)))
    return f.scale(QTScalar(Fraction(1, a)))


def bizley(a: int, b: int, d: int) -> SymFun:
    """sum over mu of d of prod_i (1/a) e_(b mu_i)[a mu_i x] / z_mu.

    Equals the riser enumerator of (ad, bd)-Dyck paths (the q = 1 count).
    """
    if gcd(a, b) != 1:
        raise ValueError("a, b must be coprime")
    total = SymFun.zero("e")
    for mu in shapes.partitions_of(d):
        term = SymFun.one("e")
        for part in mu:
            term = symfun.mul(term, _bizley_generator(a, b, part))
        total = total + term.scale(QTScalar(Fraction(1, shapes.z_stat(mu))))
    return total


# ---------------------------------------------------------------------------
# parking functions
# ---------------------------------------------------------------------------


def parking(p: DyckPath):
    """All parking functions on p, in lexicographic order of their labels.

    The labels are filled in depth first, one south step at a time, trying
    values in increasing order; a step directly above another in the same
    column starts above that step's label.  So only label sequences that
    increase up each column are built: n!/prod(r_i!) of them for riser
    composition r, never the n! permutations.
    """
    n, w = p.n, p.word
    out = []
    labels = [0] * n
    used = [False] * (n + 1)

    def fill(k):
        if k == n:
            out.append(ParkingFun(p, tuple(labels)))
            return
        low = labels[k - 1] + 1 if k and w[k] == w[k - 1] else 1
        for v in range(low, n + 1):
            if not used[v]:
                used[v] = True
                labels[k] = v
                fill(k + 1)
                used[v] = False

    fill(0)
    return out


def rank(x: int, y: int, m: int, n: int) -> int:
    return n * m - y * m - x * n


def descent_comp(pf: ParkingFun):
    """Composition of n recording where label i+1 sits at rank <= label i.

    The step at height k starts at cell (word[k], k); one pass over the
    labels reads the rank of every label's cell, and a part ends at each
    such descent.
    """
    p = pf.path
    m, n, w = p.m, p.n, p.word
    ranks = [0] * n
    for k, lab in enumerate(pf.labels):
        ranks[lab - 1] = rank(w[k], k, m, n)
    parts, run = [], 1
    for i in range(1, n):
        if ranks[i - 1] >= ranks[i]:
            parts.append(run)
            run = 1
        else:
            run += 1
    parts.append(run)
    return tuple(parts)
