"""Operators on symmetric functions: the degree-shift family D_k, the
bidegree-indexed family Q_(m,n) built from nested commutators, the
theta operators Theta_(a,b), and the composition operators C_a.

D_k and C_a are plethystic substitutions with one fixed alphabet each,
X -> X + M/z and X -> X - (t-1)/(tz), applied by symfun.plethys from the
power sums of the alphabet, p_k[M] = (1-q^k)(1-t^k) and
p_k[-(t-1)/t] = t^(-k) - 1; the z^(-j) part of the substitution is then
multiplied by (-1)^(k+j) e_(k+j) for D_k and by h_(a+j) for C_a.

Conventions (fixed once, validated by the test suite):
  * Q_(0,l) is multiplication by q_l and Q_(1,0) = D_0.
  * For other bidegrees, Q_(m,n) = (1/M) [Q_(k,l), Q_(m-k,n-l)] with
    M = (1-t)(1-q) and the split (k,l) chosen canonically (see q_split).

Q_(m,n) and f -> Theta_(a,b)(f)(1) are linear maps applied as
op(f) = sum_lambda f[lambda] * column(op, f.basis, lambda), the column
being op applied to the single basis element lambda; the sum is
symfun.sum_columns, the column sum that every linear map in the package
shares.  One dict holds all columns, keyed by (op, basis, lambda), where
op is a bracket-tree node or ("theta", a, b); a commutator column applies
each child through its own columns.  Its division by M is exact
polynomial division: each coefficient's numerator is divided by 1 - q and
by 1 - t on one dense form, which keeps it reduced over the same
denominator; a numerator that leaves a remainder is multiplied by 1/M in
the field instead.

Theta follows the nabla shear (Bergeron-Garsia-Leven-Xin,
arXiv:1404.4616): conjugating by nabla sends Q_(m,n) to Q_(m+n,n) and
fixes 1, so Theta_(a,b)(f)(1) = nabla Theta_(a-b,b)(f)(1), and
Theta_(0,1)(f)(1) = f.  For a >= b, theta applies nabla^(a // b) to the
whole of Theta_(a mod b, b)(f)(1), through the stored Schur columns of
nabla, so only ("theta", a, b) columns with a < b are stored.
Theta_(0,1)(f)(1) is f as it is, with no column, and the others go
through Q_(m,n).  Those are built from q-basis prefix columns: the
Q_(a mu_i, b mu_i) commute (same reference), so
Theta(q_mu)(1) = Q_(a mu_1, b mu_1) Theta(q_(mu_2, ...))(1),
the column at q_() is 1, and one stored q-basis column serves every mu
that extends it; a column in any other basis is the weighted sum of the
q-basis columns over the q_mu expansion of its basis element.  Theta
columns are kept in the p basis, the basis the weighted sums are taken
in.  An explicit g in theta takes the direct route (the q_mu expansion of
f and products of Q_(m,n)) on the whole of f.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

from . import symfun
from .coeffs import QT_M, QT_ONE, QTPoly, QTScalar
from .macdonald import nabla
from .symfun import SymFun, mul, plethys, sum_columns

#: bump when any operator convention changes, so cached results invalidate
CALIBRATION_VERSION = "ehall-ops-1"

_M_INV = QT_M.inverse()
#: M = -(q^1 - t^0)(q^0 - t^1), as the factors of QTPoly.div_binomials
_M_FACTORS = {(1, 0): 1, (0, 1): 1}


# ---------------------------------------------------------------------------
# the operators D_k
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _m_power_sum(k: int) -> QTScalar:
    """p_k[M] = (1 - q^k)(1 - t^k)."""
    return QTScalar(QTPoly({(0, 0): 1, (k, 0): -1, (0, k): -1, (k, k): 1}))


def _z_parts_times(f: SymFun, power_sum, k: int, generator) -> SymFun:
    """The sum over j of the z^(-j) part of f[X + A/z] times generator(k + j),
    over k + j >= 0, where power_sum(i) = p_i[A]."""
    out = SymFun.zero("p")
    for j, part in plethys(f, power_sum).items():
        if k + j >= 0:
            out = out + mul(SymFun._raw("p", part), generator(k + j))
    return out


def apply_D(k: int, g: SymFun) -> SymFun:
    """D_k g = [z^k] g[X + M/z] * sum_n e_n (-z)^n: the sum over j of the
    z^(-j) part of g[X + M/z] times (-1)^(k+j) e_(k+j)."""
    return _z_parts_times(g, _m_power_sum, k, lambda n: -symfun.e_(n) if n % 2 else symfun.e_(n))


# ---------------------------------------------------------------------------
# canonical commutator splits and bracket words
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def q_split(m: int, n: int):
    """Canonical split (k,l), (m-k,n-l) for Q_(m,n) = [Q_(k,l), Q_(u,v)]/M.

    The split is computed on the coprime direction (a,b) = (m,n)/gcd and
    kept unscaled: (k,l) is the unique lattice point in the box
    [0,a] x [0,b] with a*l - b*k = 1, which makes det((u,v),(k,l)) equal
    to gcd(m,n).
    """
    if m < 0 or n < 0 or (m, n) in ((0, 0), (1, 0)) or m == 0:
        raise ValueError(f"no split for bidegree {(m, n)}")
    d = gcd(m, n)
    a, b = m // d, n // d
    candidates = []
    for k in range(a + 1):
        num = 1 + b * k
        if num % a == 0:
            l = num // a
            if 0 <= l <= b and (k, l) not in ((0, 0), (a, b)):
                candidates.append((k, l))
    if len(candidates) != 1:
        raise AssertionError(f"split for {(m, n)} is not unique: {candidates}")
    k, l = candidates[0]
    u, v = m - k, n - l
    assert m * l - n * k == d
    assert u >= 1, f"unreachable axis leaf {(u, v)}"
    assert v >= 1 or u == 1, f"unreachable axis leaf {(u, v)}"
    assert k >= 1 or l == 1, f"unreachable axis leaf {(k, l)}"
    return (k, l), (u, v)


@lru_cache(maxsize=None)
def bracket_tree(m: int, n: int):
    """Nested-commutator expression for Q_(m,n) over the leaves q_l, D_0.

    Nodes are ('e', l) for multiplication by q_l, ('D',) for D_0, and
    ('[]', left, right) for a commutator divided by M.
    """
    if m < 0 or n < 0 or (m, n) == (0, 0):
        raise ValueError(f"invalid bidegree {(m, n)}")
    if m == 0:
        return ("e", n)
    if (m, n) == (1, 0):
        return ("D",)
    (k, l), (u, v) = q_split(m, n)
    return ("[]", bracket_tree(k, l), bracket_tree(u, v))


def bracket_word(m: int, n: int) -> str:
    """Flat string form of the commutator expression, e.g. '[e1,D0]'."""

    def render(node):
        if node[0] == "e":
            return "e1" if node[1] == 1 else f"q{node[1]}"
        if node[0] == "D":
            return "D0"
        return f"[{render(node[1])},{render(node[2])}]"

    return render(bracket_tree(m, n))


def m_power(m: int, n: int) -> int:
    """Exponent w in Q_(m,n) = (1/M^w) <bracket word>."""

    def count(node):
        return 0 if node[0] in ("e", "D") else 1 + count(node[1]) + count(node[2])

    return count(bracket_tree(m, n))


# ---------------------------------------------------------------------------
# the column store; applying Q_(m,n)
# ---------------------------------------------------------------------------

#: the column store: (op, basis, lambda) -> op(basis element lambda)
_apply_memo: dict = {}


def _column(op, basis: str, lam: tuple) -> SymFun:
    """op applied to the basis element lam, computed once and stored."""
    key = (op, basis, lam)
    col = _apply_memo.get(key)
    if col is None:
        unit = SymFun(basis, {lam: QT_ONE})
        if op[0] == "e":
            col = mul(symfun.q_d(op[1]), unit)
        elif op[0] == "D":
            col = apply_D(0, unit)
        elif op[0] == "[]":
            left, right = op[1], op[2]
            lr = _apply(left, _column(right, basis, lam))
            rl = _apply(right, _column(left, basis, lam))
            col = _over_m(lr - rl)
        elif basis != "q":
            col = _apply(op, symfun.expand_in_q(unit))
        elif not lam:
            col = SymFun.one("p")
        else:
            # the Q_(a mu_i, b mu_i) commute: peel off the first part
            col = apply_Q(op[1] * lam[0], op[2] * lam[0], _column(op, "q", lam[1:]))
        _apply_memo[key] = col
    return col


def _over_m(f: SymFun) -> SymFun:
    """f / M, dividing each numerator exactly by (1 - q) and (1 - t).

    M = (1 - t)(1 - q) = -(q^1 - t^0)(q^0 - t^1).  For a reduced n/d with
    M | n, (n/M)/d is reduced again; any other coefficient is multiplied
    by 1/M in the field.
    """
    out = {}
    for lam, c in f.terms.items():
        quo, divided = c.num.div_binomials(_M_FACTORS)
        out[lam] = QTScalar._raw(-quo, c.den) if divided == _M_FACTORS else c * _M_INV
    return SymFun._raw(f.basis, out)


def _apply(op, f: SymFun) -> SymFun:
    """op(f) as the f-weighted sum of the columns of op."""
    return sum_columns("p", f.terms, lambda lam: _column(op, f.basis, lam).terms)


def apply_Q(m: int, n: int, f: SymFun) -> SymFun:
    """Apply Q_(m,n) to f through the columns of its bracket tree."""
    return _apply(bracket_tree(m, n), f)


# ---------------------------------------------------------------------------
# theta operators
# ---------------------------------------------------------------------------


def theta(a: int, b: int, f: SymFun, g: SymFun | None = None) -> SymFun:
    """Theta_(a,b)(f) applied to g (default 1).

    f is expanded in the q_mu basis degreewise and each q_mu is replaced
    by the product of the commuting operators Q_(a mu_i, b mu_i).  For
    a < 0 the operator is transported along nabla:
    Theta_(a,b) = nabla^(-1) Theta_(a+b,b) nabla.

    With g = 1 and a >= b the result is nabla^(a // b) of
    Theta_(a mod b, b)(f)(1), in the s basis, so Theta_(a,1)(f)(1) is
    nabla^a f and Theta_(-1,1)(f)(1) is nabla^(-1) f.  With g = 1,
    Theta_(0,1)(f)(1) is f, returned as it is, and for any other
    0 <= a < b it is sum_lambda f[lambda] times the stored column of
    ("theta", a, b) at lambda, Theta_(a,b)(basis element lambda)(1), a
    sum of q-basis prefix columns.  An explicit g is applied to the whole
    of f directly.
    """
    if b < 1:
        raise ValueError("theta needs b >= 1")
    if a < 0:
        return nabla(theta(a + b, b, f, None if g is None else nabla(g)), power=-1)
    if g is not None:
        return _theta_direct(a, b, f, g)
    if (a, b) == (0, 1):
        return f
    if a >= b:
        return nabla(theta(a % b, b, f), a // b)
    return _apply(("theta", a, b), f)


def _theta_direct(a: int, b: int, f: SymFun, g: SymFun) -> SymFun:
    """Theta_(a,b)(f)(g) for a >= 0, through the q_mu expansion of f."""
    out = SymFun.zero("p")
    for comp in f.degree_components().values():
        for mu, c in symfun.expand_in_q(comp).terms.items():
            h = g
            for part in reversed(mu):
                if a == 0:
                    h = mul(symfun.q_d(part * b), h)
                else:
                    h = apply_Q(a * part, b * part, h)
            out = out + h.scale(c)
    return out


# ---------------------------------------------------------------------------
# composition operators
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _c_power_sum(k: int) -> QTScalar:
    """p_k[-(t - 1)/t] = t^(-k) - 1."""
    return QTScalar.qt_monomial(1, 0, -k) - QT_ONE


def c_op(a: int, f: SymFun) -> SymFun:
    """C_a f = (-t)^(1-a) (f[X - (t-1)/(tz)] * sum_m z^m h_m) |_(z^a): the
    sum over j of the z^(-j) part of f[X - (t-1)/(tz)] times h_(a+j)."""
    out = _z_parts_times(f, _c_power_sum, a, symfun.h_)
    return out.scale(QTScalar.qt_monomial((-1) ** (1 - a), 0, 1 - a))


def c_alpha(alpha, f: SymFun | None = None) -> SymFun:
    """C_(alpha_1) C_(alpha_2) ... C_(alpha_k) f, applied right to left."""
    if f is None:
        f = SymFun.one("p")
    for a in reversed(tuple(alpha)):
        f = c_op(a, f)
    return f
