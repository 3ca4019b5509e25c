"""Integer partitions and compositions, with the statistics used by the
operator calculus and the path combinatorics.

Partitions are plain tuples of weakly decreasing positive ints, largest
first; compositions are tuples of positive ints in any order.  The empty
tuple is the partition (and composition) of 0.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial


def is_partition(mu) -> bool:
    return all(a >= b for a, b in zip(mu, mu[1:])) and all(p > 0 for p in mu)


def check_partition(mu):
    mu = tuple(int(p) for p in mu)
    if not is_partition(mu):
        raise ValueError(f"not a partition: {mu}")
    return mu


def size(mu) -> int:
    return sum(mu)


def conjugate(mu):
    """Transpose of the Young diagram."""
    if not mu:
        return ()
    out = [0] * mu[0]
    for p in mu:
        for i in range(p):
            out[i] += 1
    return tuple(out)


def z_stat(mu) -> int:
    """z_mu = prod_k k^{c_k} c_k! over multiplicities c_k."""
    z = 1
    for k in set(mu):
        c = mu.count(k)
        z *= k**c * factorial(c)
    return z


def iota(mu) -> int:
    """Sum of positive parts of mu_i - i (1-indexed).

    The positive-part reading is the one consistent with iota(3) = 2,
    iota(21) = 1 and iota of the hook (j|k) being j.
    """
    return sum(max(p - i, 0) for i, p in enumerate(mu, start=1))


def n_stat(mu) -> int:
    """n(mu) = sum (i-1) mu_i; exponent in the nabla eigenvalues."""
    return sum((i - 1) * p for i, p in enumerate(mu, start=1))


def bar(mu):
    """Remove the first column: subtract 1 from each part, drop zeros."""
    return tuple(p - 1 for p in mu if p > 1)


def hook(j: int, k: int):
    """The hook partition (j|k) = (j+1, 1^k)."""
    if j < 0 or k < 0:
        raise ValueError("hook indices must be nonnegative")
    return (j + 1,) + (1,) * k


@lru_cache(maxsize=None)
def partitions_of(d: int):
    """All partitions of d, reverse-lexicographic ((d) first, (1^d) last)."""
    if d < 0:
        raise ValueError("d must be nonnegative")
    if d == 0:
        return ((),)
    out = []

    def rec(remaining, maxpart, prefix):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for p in range(min(remaining, maxpart), 0, -1):
            prefix.append(p)
            rec(remaining - p, p, prefix)
            prefix.pop()

    rec(d, d, [])
    return tuple(out)


@lru_cache(maxsize=None)
def compositions_of(d: int):
    """All 2^(d-1) compositions of d, reverse-lexicographic."""
    if d < 0:
        raise ValueError("d must be nonnegative")
    if d == 0:
        return ((),)
    out = []

    def rec(remaining, prefix):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for p in range(remaining, 0, -1):
            prefix.append(p)
            rec(remaining - p, prefix)
            prefix.pop()

    rec(d, [])
    return tuple(out)


def subset_to_composition(d: int, S):
    """The composition of d whose partial sums below d are the set S."""
    S = set(S)
    if any(not (1 <= s <= d - 1) for s in S):
        raise ValueError(f"subset {sorted(S)} not within 1..{d - 1}")
    cuts = sorted(S) + [d]
    prev, parts = 0, []
    for s in cuts:
        parts.append(s - prev)
        prev = s
    return tuple(parts)


def union_parts(mu, nu):
    """Multiset union of parts, sorted decreasingly (product of p/e/h/q indices)."""
    return tuple(sorted(mu + nu, reverse=True))
