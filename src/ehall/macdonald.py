"""Modified Macdonald polynomials and the nabla operator.

H~_mu is built from the Haglund-Haiman-Loehr formula (J. AMS 18 (2005),
arXiv:math/0409538): the coefficient of m_lam in H~_mu is the sum of
q^inv(sigma) t^maj(sigma) over the fillings sigma of the diagram of mu
with content lam (lam_1 ones, lam_2 twos, ...).  Only integer arithmetic
is involved; the m-expansion is then converted to the s basis.  Only the
mu >= mu' are filled: H~_mu'(q, t) = H~_mu(t, q).

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

Coordinates: the H~_mu are orthogonal for the *-scalar product, with
<p_rho, p_rho>_* = (-1)^(n - l(rho)) z_rho prod_i (1 - q^rho_i)(1 - t^rho_i)
and <H~_mu, H~_mu>_* = prod over cells (q^a - t^(l+1)) (t^l - q^(a+1))
(Bergeron-Garsia-Haiman-Tesler, Methods Appl. Anal. 6 (1999)), so
c_mu(f) = <f, H~_mu>_* / <H~_mu, H~_mu>_* and no matrix is inverted.  The
product is diagonal in the p basis, so the pairings with the s_lam are two
basis changes of H~_mu, through p and back to s.

nabla is a linear map over stored Schur columns keyed by (sign, lam):
nabla s_lam = sum over mu of c_mu(s_lam) ev_mu H~_mu, built once, and
nabla^(-1) s_lam.  The pairings <s_lam, H~_mu>_* are polynomials and the
*-norm is a sign times a product of binomials q^a - t^b, so the column is
summed over denominators kept as multisets of binomials, never as reduced
fractions: two denominators share their multiset intersection, and only
its factors are tried for cancellation, by exact division.  Every column
is a polynomial, so the numerator left at the end divides exactly by every
factor left.  No gcd is taken.  Since H~_mu'(q, t) = H~_mu(t, q), the
term of mu' is the q, t swap of the term of mu, and only half the sum is
built.

Since H~_mu[X; 1/q, 1/t] = t^-n(mu) q^-n(mu') omega H~_mu[X; q, t]
(Garsia-Haiman), nabla^(-1) = omega bar(nabla) omega, where the bar sends
q, t to 1/q, 1/t: the coefficient of s_nu' in nabla^(-1) s_lam is the
coefficient of s_nu in nabla s_lam', a polynomial, specialized there.
nabla^k applies the sign(k) columns |k| times, so the store holds at most
2 p(n) columns of degree n.  Each power step of nabla is symfun.sum_columns, the column
sum that every linear map in the package shares.  expand_in_eigenbasis,
the H~ coordinates of any f in the field, is kept for the tests as the
oracle of the columns.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache, reduce

from . import shapes
from .coeffs import QT_Q, QT_T, QT_ZERO, QTPoly, QTScalar
from .symfun import SymFun, sum_columns


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
        conj = shapes.conjugate(mu)
        if mu < conj:
            # H~_mu(q, t) = H~_mu'(t, q), and mu' > mu comes first
            out[mu] = SymFun._raw("s", {lam: QTScalar._raw(_swap_qt(c.num), c.den)
                                        for lam, c in out[conj].terms.items()})
            continue
        h = SymFun("m", {lam: _hhl_coefficient(mu, lam) for lam in parts})
        s = h.convert("s").terms
        # keep the terms in partitions_of(n) order, which convert does not
        out[mu] = SymFun("s", {lam: s[lam] for lam in parts if lam in s})
    return out


def _star_norm_p(rho) -> QTPoly:
    """<p_rho, p_rho>_* = (-1)^(n - l(rho)) z_rho prod_i (1 - q^rho_i)(1 - t^rho_i)."""
    out = QTPoly((-1) ** (sum(rho) - len(rho)) * shapes.z_stat(rho))
    for k in rho:
        out = out * (QTPoly(1) - QTPoly.monomial(1, k, 0)) * (QTPoly(1) - QTPoly.monomial(1, 0, k))
    return out


def _star_norm_factors(mu):
    """<H~_mu, H~_mu>_* as (sign, factors): sign times the product of the
    binomials q^a - t^b over the multiset factors of pairs (a, b).

    Each cell gives (q^a - t^(l+1)) (t^l - q^(a+1)), that is the pairs
    (a, l + 1) and (a + 1, l) and a factor -1.
    """
    conj = shapes.conjugate(mu)
    factors = Counter()
    for i, part in enumerate(mu, start=1):
        for j in range(1, part + 1):
            a, l = part - j, conj[j - 1] - i
            factors[a, l + 1] += 1
            factors[a + 1, l] += 1
    return (-1) ** sum(mu), factors


def _times_binomials(p: QTPoly, factors) -> QTPoly:
    """p times the product of q^a - t^b over the multiset factors.  The
    binomials are multiplied first, so that p, often the largest factor,
    takes part in one product only."""
    prod = QTPoly(1)
    for (a, b), k in factors.items():
        binomial = QTPoly({(a, 0): 1, (0, b): -1})
        for _ in range(k):
            prod = prod * binomial
    return p * prod


def _star_norm(mu) -> QTScalar:
    """<H~_mu, H~_mu>_* = prod over cells of (q^a - t^(l+1)) (t^l - q^(a+1))."""
    sign, factors = _star_norm_factors(mu)
    return QTScalar(_times_binomials(QTPoly(sign), factors))


@lru_cache(maxsize=None)
def _star_pairings(n: int):
    """mu -> {lam: <s_lam, H~_mu>_*} for every mu |- n, as QTPolys, each
    row in partitions_of(n) order.

    The *-scalar product is diagonal in the p basis, so <s_lam, f>_* is the
    coefficient of s_lam in the sum over rho of w_rho [p_rho]f p_rho, with
    w_rho = <p_rho, p_rho>_* / z_rho: each row is H~_mu taken to p, scaled
    and taken back to s.  All of it is polynomial.  Swapping q and t fixes
    the *-scalar product and sends H~_mu to H~_mu', so the row of mu' is
    the swap of the row of mu: only the rows with mu >= mu' are converted.
    """
    parts = shapes.partitions_of(n)
    weight = {rho: QTScalar(_star_norm_p(rho)) / shapes.z_stat(rho) for rho in parts}
    out = {}
    for mu, H in eigenbasis(n).items():
        conj = shapes.conjugate(mu)
        if mu < conj:
            # mu' > mu comes first in the reverse-lexicographic order
            out[mu] = {lam: _swap_qt(g) for lam, g in out[conj].items()}
            continue
        p = H.convert("p").terms
        s = SymFun("p", {rho: c * weight[rho] for rho, c in p.items()}).convert("s").terms
        out[mu] = {lam: s[lam].num for lam in parts if lam in s}
    return out


def expand_in_eigenbasis(f: SymFun) -> dict:
    """Coordinates of f in the H~_mu basis: dict mu -> QTScalar.

    c_mu(f) = <f, H~_mu>_* / <H~_mu, H~_mu>_*, by the orthogonality of the
    H~_mu for the *-scalar product.
    """
    out = {}
    for n, comp in f.convert("s").degree_components().items():
        for mu, row in _star_pairings(n).items():
            c = QT_ZERO
            for lam, v in comp.terms.items():
                if lam in row:
                    c = c + v * QTScalar(row[lam])
            if c:
                out[mu] = c / _star_norm(mu)
    return out


def nabla_eigenvalue(mu) -> QTScalar:
    """nabla H~_mu = t^n(mu) q^n(mu') H~_mu."""
    return QTScalar.qt_monomial(1, shapes.n_stat(shapes.conjugate(mu)), shapes.n_stat(mu))


#: the stored columns: (sign, lam) -> nabla^sign s_lam in the s basis
_columns: dict = {}


def _cancel(num: QTPoly, den: Counter, factors) -> QTPoly:
    """num divided by the factors q^a - t^b in the multiset factors that
    divide it; each one divided out is removed from den in place."""
    num, divided = num.div_binomials(factors)
    den -= divided
    return num


def _add_fractions(x, y):
    """x + y for fractions (num, den) over multisets den of binomials.

    The gcd of the denominators is taken as their multiset intersection
    g, so the sum is n1 prod(d2 - g) + n2 prod(d1 - g) over d1 | d2, and
    only a factor of g can cancel.
    """
    (n1, d1), (n2, d2) = x, y
    g = d1 & d2
    num = _times_binomials(n1, d2 - g) + _times_binomials(n2, d1 - g)
    den = d1 | d2
    return _cancel(num, den, g), den


def _swap_qt(p: QTPoly) -> QTPoly:
    """p(t, q)."""
    return QTPoly({(j, i): c for (i, j), c in p.terms.items()})


def _swapped(x):
    """x(t, q) for a fraction x = (num, den): q^a - t^b becomes -(q^b - t^a)."""
    num, den = x
    num = _swap_qt(num)
    return (-num if sum(den.values()) % 2 else num,
            Counter({(b, a): k for (a, b), k in den.items()}))


def _nabla_column(lam: tuple) -> SymFun:
    """nabla s_lam = sum over mu of c_mu ev_mu H~_mu, with no gcd.

    c_mu = <s_lam, H~_mu>_* / <H~_mu, H~_mu>_* keeps as its denominator
    the binomial factors of the *-norm that do not divide the pairing, and
    the sum over mu is a Henrici sum over those multisets.  Swapping q and
    t fixes the *-scalar product and sends H~_mu, ev_mu and the *-norm of
    mu to those of mu' (H~_mu'(q, t) = H~_mu(t, q)), so the term of mu' is
    the swap of the term of mu: only the mu >= mu' are summed, and the sum
    over mu > mu' is added to its swap.  The column is a polynomial, so
    each factor left at the end divides the numerator exactly.
    """
    n = sum(lam)
    basis = eigenbasis(n)
    above, self_conj = {}, {}  # sums over mu > mu' and over mu = mu'
    for mu, row in _star_pairings(n).items():
        pair = row.get(lam)
        conj = shapes.conjugate(mu)
        if pair is None or mu < conj:
            continue
        sums = self_conj if mu == conj else above
        sign, den = _star_norm_factors(mu)
        num = _cancel(pair * nabla_eigenvalue(mu).num * sign, den, den.copy())
        for nu, h in basis[mu].terms.items():
            term = (num * h.num, den)
            sums[nu] = _add_fractions(sums[nu], term) if nu in sums else term
    out = {}
    for nu in shapes.partitions_of(n):
        terms = [self_conj[nu]] if nu in self_conj else []
        if nu in above:
            terms += [above[nu], _swapped(above[nu])]
        if not terms:
            continue
        num, den = reduce(_add_fractions, terms)
        num, divided = num.div_binomials(den)
        assert divided == den, "nabla column with a non-polynomial coefficient"
        if num:
            out[nu] = QTScalar._raw(num, QTPoly(1))
    return SymFun._raw("s", out)


def _column(sign: int, lam: tuple) -> SymFun:
    """nabla^sign s_lam (sign is 1 or -1), computed once and stored.

    nabla^(-1) s_lam is omega of the bar of nabla s_lam'.
    """
    key = (sign, lam)
    col = _columns.get(key)
    if col is None:
        if sign > 0:
            col = _nabla_column(lam)
        else:
            conj, bar = shapes.conjugate, {"q": QT_Q.inverse(), "t": QT_T.inverse()}
            col = SymFun("s", {conj(nu): c.specialize(bar) for nu, c in _column(1, conj(lam)).terms.items()})
        _columns[key] = col
    return col


def nabla(f: SymFun, power: int = 1) -> SymFun:
    """nabla^power f in the s basis (power may be negative).

    f is converted to s and the stored nabla or nabla^(-1) columns are
    applied |power| times, each time as the f-weighted sum of the columns.
    """
    sign = 1 if power > 0 else -1
    g = f.convert("s")
    for _ in range(abs(power)):
        g = sum_columns("s", g.terms, lambda lam: _column(sign, lam).terms)
    return g
