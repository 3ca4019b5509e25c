"""Modified Macdonald polynomials and the nabla operator.

H~_mu is built from the Haglund-Haiman-Loehr formula (J. AMS 18 (2005),
arXiv:math/0409538): the coefficient of m_lam in H~_mu is the sum of
q^inv(sigma) t^maj(sigma) over the fillings sigma of the diagram of mu
with content lam (lam_1 ones, lam_2 twos, ...).  Only integer arithmetic
is involved; the m-expansion is then converted to the s basis.

Conventions:
  * Diagram: French notation, row i (bottom row i = 1) holds the cells
    (i, 1..mu_i).  arm(u) counts the cells right of u in its row, leg(u)
    the cells above u in its column.
  * Reading order: rows from top to bottom, each row left to right.
  * A descent is a cell u = (i, j), i >= 2, with sigma(u) > sigma(i-1, j);
    maj = sum over descents of leg(u) + 1.
  * Two cells attack if they share a row, or if they lie in rows i and
    i-1 with the upper cell strictly right of the lower one.  inv is the
    number of attacking pairs (u, v), u before v in reading order, with
    sigma(u) > sigma(v), minus the sum over descents of arm(u).

The result satisfies D_0 H~_mu = (1 - M B_mu) H~_mu with B_mu the diagram
generating function, and <H~_mu, s_(n)> = 1; the tests check both against
the D_0 eigenvector route.  nabla scales H~_mu by t^n(mu) q^n(mu').
"""

from __future__ import annotations

from functools import lru_cache

from . import linalg, shapes
from .coeffs import QT_ZERO, QTPoly, QTScalar
from .symfun import SymFun


def _reading_order(mu):
    """The cells of mu in reading order, as (attackers, above) pairs.

    attackers are the reading positions of the earlier cells that attack
    the cell.  above is None at the top of a column, else the position of
    the cell u above with arm(u) and leg(u) + 1: u is a descent when its
    value is larger.
    """
    conj = shapes.conjugate(mu)
    pos = {}
    for i in range(len(mu), 0, -1):
        for j in range(1, mu[i - 1] + 1):
            pos[i, j] = len(pos)
    steps = []
    for i, j in pos:
        attackers = [pos[i, c] for c in range(1, j)]
        if i < len(mu):
            attackers += [pos[i + 1, c] for c in range(j + 1, mu[i] + 1)]
        above = (pos[i + 1, j], mu[i] - j, conj[j - 1] - i) if (i + 1, j) in pos else None
        steps.append((attackers, above))
    return steps


def _hhl_coefficient(mu, lam) -> QTPoly:
    """Sum of q^inv t^maj over the fillings of mu with content lam."""
    steps = _reading_order(mu)
    counts = list(lam)
    values = [0] * len(steps)
    total = {}

    def fill(k, inv, maj):
        if k == len(steps):
            total[inv, maj] = total.get((inv, maj), 0) + 1
            return
        attackers, above = steps[k]
        for v, left in enumerate(counts):
            if not left:
                continue
            counts[v] = left - 1
            values[k] = v
            di = sum(1 for a in attackers if values[a] > v)
            dm = 0
            if above is not None and values[above[0]] > v:
                di -= above[1]
                dm = above[2]
            fill(k + 1, inv + di, maj + dm)
            counts[v] = left

    fill(0, 0, 0)
    return QTPoly(total)


@lru_cache(maxsize=None)
def eigenbasis(n: int):
    """All H~_mu with |mu| = n, as a dict mu -> SymFun in the s basis."""
    parts = shapes.partitions_of(n)
    if n == 0:
        return {(): SymFun.one("s")}
    out = {}
    for mu in parts:
        h = SymFun("m", {lam: _hhl_coefficient(mu, lam) for lam in parts})
        s = h.convert("s").terms
        # keep the terms in partitions_of(n) order, which convert does not
        out[mu] = SymFun("s", {lam: s[lam] for lam in parts if lam in s})
    return out


@lru_cache(maxsize=None)
def _eigen_matrix_inverse(n: int):
    """Inverse of the matrix whose columns are the H~_mu in Schur coordinates."""
    parts = shapes.partitions_of(n)
    basis = eigenbasis(n)
    mat = [[basis[mu].terms.get(lam, QT_ZERO) for mu in parts] for lam in parts]
    return linalg.inverse(mat)


def expand_in_eigenbasis(f: SymFun) -> dict:
    """Coordinates of f in the H~_mu basis: dict mu -> QTScalar."""
    out = {}
    for n, comp in f.convert("s").degree_components().items():
        parts = shapes.partitions_of(n)
        inv = _eigen_matrix_inverse(n)
        vec = [comp.terms.get(lam, QT_ZERO) for lam in parts]
        for i, mu in enumerate(parts):
            c = QT_ZERO
            for j in range(len(parts)):
                if vec[j]:
                    c = c + inv[i][j] * vec[j]
            if c:
                out[mu] = c
    return out


def nabla_eigenvalue(mu) -> QTScalar:
    """nabla H~_mu = t^n(mu) q^n(mu') H~_mu."""
    return QTScalar.qt_monomial(1, shapes.n_stat(shapes.conjugate(mu)), shapes.n_stat(mu))


def nabla(f: SymFun, power: int = 1) -> SymFun:
    """Apply nabla^power (power may be negative) degreewise."""
    out = SymFun.zero("s")
    for mu, c in expand_in_eigenbasis(f).items():
        ev = nabla_eigenvalue(mu) ** power
        out = out + eigenbasis(sum(mu))[mu].scale(c * ev)
    return out
