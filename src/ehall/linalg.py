"""Exact Gaussian elimination over Q(q,t) (and over plain Fractions).

Matrices are lists of lists; all arithmetic stays symbolic, so results
are exact.  Sizes here are tiny (at most p(8) = 22), so plain field
elimination with a sparsity-aware pivot choice is enough to keep
coefficient growth in check.
"""

from __future__ import annotations

from fractions import Fraction

from .coeffs import QTScalar


def _is_zero(x):
    return not x


def _pivot_row(rows, col, start):
    """Prefer short/constant pivots to limit rational-function blowup."""
    best, best_cost = None, None
    for r in range(start, len(rows)):
        x = rows[r][col]
        if _is_zero(x):
            continue
        if isinstance(x, QTScalar):
            cost = len(x.num.terms) + len(x.den.terms)
        else:
            cost = 1
        if best is None or cost < best_cost:
            best, best_cost = r, cost
            if cost <= 2:
                break
    return best


def inverse(matrix):
    """Exact inverse of a square matrix."""
    n = len(matrix)
    if n == 0:
        return []
    one = _one_like(matrix[0][0])
    zero = one - one
    rows = [list(matrix[i]) + [one if j == i else zero for j in range(n)] for i in range(n)]
    for c in range(n):
        p = _pivot_row(rows, c, c)
        if p is None:
            raise ValueError("singular matrix")
        rows[c], rows[p] = rows[p], rows[c]
        piv = rows[c][c]
        rows[c] = [x / piv for x in rows[c]]
        for r in range(n):
            if r == c or _is_zero(rows[r][c]):
                continue
            factor = rows[r][c]
            rows[r] = [rows[r][j] - factor * rows[c][j] for j in range(2 * n)]
    return [row[n:] for row in rows]


def nullspace(matrix):
    """Basis of the kernel of a (possibly rectangular) exact matrix."""
    if not matrix:
        return []
    m, n = len(matrix), len(matrix[0])
    one = _one_like(matrix[0][0])
    zero = one - one
    rows = [list(r) for r in matrix]
    pivots = []
    r = 0
    for c in range(n):
        p = _pivot_row(rows, c, r)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        piv = rows[r][c]
        rows[r] = [x / piv for x in rows[r]]
        for rr in range(m):
            if rr == r or _is_zero(rows[rr][c]):
                continue
            f = rows[rr][c]
            rows[rr] = [rows[rr][j] - f * rows[r][j] for j in range(n)]
        pivots.append(c)
        r += 1
        if r == m:
            break
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        v = [zero] * n
        v[fc] = one
        for i, pc in enumerate(pivots):
            v[pc] = zero - rows[i][fc]
        basis.append(v)
    return basis


def _one_like(x):
    if isinstance(x, QTScalar):
        return QTScalar.one()
    return Fraction(1)
