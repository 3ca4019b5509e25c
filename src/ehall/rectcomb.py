"""Rectangular (m,n)-Dyck paths, parking functions, and their enumerators.

An (m,n)-Dyck path is encoded by its word: a weakly increasing sequence
a_1 <= ... <= a_n of column indices with n*a_k <= (k-1)*m, where a_k is
the column of the south step at height k-1.  The staircase word
d_k = floor((k-1)m/n) is the unique area-zero path, and
area = sum_k (d_k - a_k).

The enumerators build each path and parking function from its shape, so
none is built only to be checked or thrown away: the words come from an
odometer under the staircase, a path with given interior returns is a
chain of primitive segments (the (m,n) path model of Bergeron-Garsia-
Leven-Xin, arXiv:1404.4616), and the labels of a parking function depend
on the path only through its riser composition.  Such objects skip the
checks of the DyckPath and ParkingFun constructors, which still validate
every object built from outside.  The path enumerators count (risers,
area) straight off the words and build no DyckPath.  Each label sequence
comes with its record, the reader of ParkingFun.word() and the descent
composition, built once per sequence and paired with it once per riser
composition.  A ParkingFun carries its record in a hidden slot, outside
the dataclass fields, so equality, hashing and repr see only
(path, labels), and word() and descent_comp look nothing up.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd
from operator import itemgetter

from . import shapes, symfun
from .symfun import SymFun


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


@dataclass(frozen=True)
class ParkingFun:
    # _record is _label_record(labels), a slot but not a field, so ==,
    # hash and repr see (path, labels) alone
    __slots__ = ("path", "labels", "_record")
    path: DyckPath
    labels: tuple  # labels[k-1] is the label of the south step at height k-1

    def __post_init__(self):
        labels = tuple(self.labels)
        object.__setattr__(self, "labels", labels)
        if sorted(labels) != list(range(1, self.path.n + 1)):
            raise ValueError("labels must be a permutation of 1..n")
        w = self.path.word
        for k in range(1, self.path.n):
            if w[k] == w[k - 1] and labels[k] < labels[k - 1]:
                raise ValueError("labels must increase up each column")
        object.__setattr__(self, "_record", _label_record(labels))

    def __reduce__(self):
        # copies and pickles go through the constructor, which sets the record
        return ParkingFun, (self.path, self.labels)

    def word(self):
        """w_i = column of the step labeled i (the displayed form)."""
        return self._record[0](self.path.word)


# the slot descriptors' setters, for objects built valid by the enumerators:
# they skip the constructors' checks and the frozen dataclasses' __setattr__
_set_m, _set_n, _set_word = DyckPath.m.__set__, DyckPath.n.__set__, DyckPath.word.__set__
_set_pf_path, _set_labels = ParkingFun.path.__set__, ParkingFun.labels.__set__
_set_record = ParkingFun._record.__set__


def _path(m: int, n: int, word: tuple) -> DyckPath:
    """A DyckPath from a word built valid, without DyckPath's checks."""
    p = object.__new__(DyckPath)
    _set_m(p, m)
    _set_n(p, n)
    _set_word(p, word)
    return p


def staircase(m: int, n: int) -> DyckPath:
    return DyckPath(m, n, tuple((k - 1) * m // n for k in range(1, n + 1)))


def _words(ceilings):
    """Every weakly increasing word w with ceilings[0] <= w_k <= ceilings[k],
    in lexicographic order: an odometer over nondecreasing ceilings."""
    n = len(ceilings)
    word = [ceilings[0]] * n
    out = []
    while True:
        out.append(tuple(word))
        k = n - 1
        while k >= 0 and word[k] >= ceilings[k]:
            k -= 1
        if k < 0:
            return out
        word[k:] = [word[k] + 1] * (n - k)


def _primitive_words(a: int, b: int, c: int, shift: int):
    """The words of the primitive (ac, bc)-Dyck paths, a, b coprime, with
    shift added to every entry.  The ceiling at each interior diagonal
    height jb (0 < j < c) is lowered by one, so no word returns there."""
    ceilings = [shift + k * a // b for k in range(b * c)]
    for j in range(1, c):
        ceilings[j * b] -= 1
    return _words(ceilings)


def _path_words(m: int, n: int, returns_at):
    """The words of enumerate_paths(m, n, returns_at), in the same order."""
    if returns_at is not None:
        returns_at = tuple(returns_at)
        d = gcd(m, n)
        if any(a < 1 for a in returns_at) or sum(returns_at) != d:
            raise ValueError(f"returns {returns_at} is not a composition of gcd(m, n) = {d}")
    if m < 1 or n < 1:
        raise ValueError("m, n must be positive")
    if returns_at is None:
        words = _words([k * m // n for k in range(n)])
    else:
        a, b = m // d, n // d
        words, shift = [()], 0
        for part in returns_at:
            segment = _primitive_words(a, b, part, shift)
            words = [w + s for w in words for s in segment]
            shift += a * part
    return words


def enumerate_paths(m: int, n: int, returns_at=None):
    """All (m,n)-Dyck paths in lexicographic word order.

    With returns_at, a composition alpha of d = gcd(m,n), only the paths
    whose interior-return composition equals alpha (their returns are at the
    heights b(alpha_1 + ... + alpha_i), i < len(alpha), with (a, b) =
    (m, n)/d); any other returns_at raises ValueError.  Such a path is a
    chain of primitive (a alpha_i, b alpha_i) segments, segment i shifted
    right by a(alpha_1 + ... + alpha_(i-1)), and the chains are taken with
    the first segment outermost, which is lexicographic order.
    """
    return [_path(m, n, w) for w in _path_words(m, n, returns_at)]


def area(p: DyckPath) -> int:
    return sum((k - 1) * p.m // p.n - a for k, a in enumerate(p.word, start=1))


def _risers(word: tuple):
    """Multiplicities of the word's entries, in increasing entry order."""
    out = []
    prev = None
    for a in word:
        if out and a == prev:
            out[-1] += 1
        else:
            out.append(1)
        prev = a
    return tuple(out)


def riser_comp(p: DyckPath):
    """Multiplicities of the word's entries, in increasing entry order."""
    return _risers(p.word)


def path_enumerator(m: int, n: int, returns_at=None) -> SymFun:
    """sum over paths of q^area * e_(riser composition), counted off the
    words of enumerate_paths without building the paths."""
    top = sum(k * m // n for k in range(n))  # the staircase's word sum
    return symfun.e_q_counts(Counter(
        (tuple(sorted(_risers(w), reverse=True)), top - sum(w))
        for w in _path_words(m, n, returns_at)
    ))


def primitive_enumerator(m: int, n: int) -> SymFun:
    """q^area-weighted riser enumerator over paths with no interior return."""
    return path_enumerator(m, n, returns_at=(gcd(m, n),))


# ---------------------------------------------------------------------------
# Bizley enumerators at q = t = 1
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _bizley_generator(a: int, b: int, k: int) -> SymFun:
    """(1/a) e_(bk)[a k x], the q = t = 1 shadow of the basic operators.

    p_rho[a k x] = (a k)^l(rho) p_rho, so each p coordinate of e_(bk) is
    scaled by (a k)^l(rho) / a.
    """
    e = symfun.e_(b * k).convert("p")
    return SymFun._raw("p", {rho: c * Fraction((a * k) ** len(rho), a) for rho, c in e.terms.items()})


def bizley(a: int, b: int, d: int) -> SymFun:
    """sum over mu of d of prod_i (1/a) e_(b mu_i)[a mu_i x] / z_mu.

    Equals the riser enumerator of (ad, bd)-Dyck paths (the q = 1 count).
    The terms are summed in p, the basis of the generators, and the sum is
    converted to e once.
    """
    if gcd(a, b) != 1:
        raise ValueError("a, b must be coprime")
    total = SymFun.zero("p")
    for mu in shapes.partitions_of(d):
        term = SymFun.one("p")
        for part in mu:
            term = symfun.mul(term, _bizley_generator(a, b, part))
        total = total + term.scale(Fraction(1, shapes.z_stat(mu)))
    return total.convert("e")


# ---------------------------------------------------------------------------
# parking functions
# ---------------------------------------------------------------------------


@lru_cache(maxsize=128)
def _labelings(risers: tuple):
    """The label sequences that increase up each column of a path with
    riser composition risers, in lexicographic order, each paired with its
    record (_label_record).

    The labels are filled in depth first, one south step at a time, trying
    values in increasing order; a step directly above another in the same
    column starts above that step's label.  Cached by riser composition:
    128 entries hold every composition of n <= 7, and an entry holds the
    n!/prod(r_i!) sequences that parking returns for it anyway.
    """
    n = sum(risers)
    # stacked[k]: step k is in the column of step k-1
    stacked = [j > 0 for r in risers for j in range(r)]
    out = []
    labels = [0] * n
    used = [False] * (n + 1)

    def fill(k):
        if k == n:
            out.append(tuple(labels))
            return
        for v in range(labels[k - 1] + 1 if stacked[k] else 1, n + 1):
            if not used[v]:
                used[v] = True
                labels[k] = v
                fill(k + 1)
                used[v] = False

    fill(0)
    return tuple((labs, _label_record(labs)) for labs in out)


def parking(p: DyckPath):
    """All parking functions on p, in lexicographic order of their labels.

    Only label sequences that increase up each column are built: n!/prod(r_i!)
    of them for riser composition r, never the n! permutations, and once per
    composition (_labelings), with their records.
    """
    out = []
    for labels, record in _labelings(riser_comp(p)):
        pf = object.__new__(ParkingFun)
        _set_pf_path(pf, p)
        _set_labels(pf, labels)
        _set_record(pf, record)
        out.append(pf)
    return out


@lru_cache(maxsize=8192)
def _label_record(labels: tuple):
    """(reader, descent composition) of a label sequence, from the heights:
    heights[i] is the height of the step labeled i+1 (the inverse
    permutation).  reader(word) is the tuple of word[heights[i]] (the
    ParkingFun's word()), and the composition of n has a part ending at
    each i with heights[i] > heights[i-1].

    Cached by label sequence, a permutation of 1..n, so the riser
    compositions that share a sequence share its record: 8192 entries hold
    every permutation of n <= 7.
    """
    n = len(labels)
    heights = [0] * n
    for k, lab in enumerate(labels):
        heights[lab - 1] = k
    parts, run = [], 1
    for i in range(1, n):
        if heights[i] > heights[i - 1]:
            parts.append(run)
            run = 1
        else:
            run += 1
    parts.append(run)
    # itemgetter of one index returns the item, not a 1-tuple
    return (itemgetter(*heights) if n > 1 else tuple), tuple(parts)


def descent_comp(pf: ParkingFun):
    """Composition of n with a part ending at each i where label i+1 sits
    on a higher south step than label i.

    The rank nm - ym - xn of the cell (word[k], k) where the step at
    height k starts falls strictly with k (y rises strictly and x weakly
    along a path), so this is the descent test rank(i+1) <= rank(i) on those
    cells, read off the heights alone.  It is not the diagonal reading
    of Bergeron-Garsia-Leven-Xin (arXiv:1404.4616), whose ranks interleave
    labels on different diagonals; switching to that reading would change
    the compositions returned here.
    """
    return pf._record[1]
