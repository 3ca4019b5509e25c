"""Symmetric functions over Q(q,t).

A SymFun is a basis-tagged, finitely supported map from partitions to
QTScalar; sums of mixed degrees are allowed and all operations work
degreewise.  Supported bases: m, e, h, p, s, and the q-basis built from
the alternating hook-Schur combinations q_d.

The pivot basis for conversions is p: h reaches it through Newton's
identities, e through the h tables under omega, s through
Murnaghan-Nakayama characters, m through the same h<->p tables, since m
and h are dual for the Hall scalar product, and the q-basis
through the integer h<->p tables times a factor in qt, from
q_d = (-qt)^(1-d) h_d[X(1-qt)] / (1-qt).  Each direction of each basis
change is a table of columns, the expansion of one basis element, cached
per partition; the q basis is kept as columns in both directions, with no
per-degree matrix.

Every linear map in the package (basis changes here, the operator
columns of ehallops, the nabla columns of macdonald, checks.bar) is
applied by sum_columns: the coordinate-weighted sum of its columns, taken
in integers, one int dict per output coefficient, and normalized once
per output coefficient.

The plethysm of the package's operators is the substitution
X -> X + E/z for one fixed alphabet E: plethys expands f[X + E/z] by
powers of z from its p coordinates, p_k[X + E/z] = p_k + p_k[E] z^(-k).
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import comb, gcd

# linalg has no caller here; the import keeps ehall.linalg loaded for
# perfbench/tracer.py, which wraps linalg.inverse and linalg.nullspace by
# module name after importing ehall.cli and ehall.ehallops
from . import linalg  # noqa: F401
from . import shapes
from .coeffs import QT_ONE, QT_ZERO, QTPoly, QTScalar, _poly, _reduced

BASES = "mehpsq"


# ---------------------------------------------------------------------------
# transition expansions (all cached per generator / per degree)
# ---------------------------------------------------------------------------


def _merge(d1, d2):
    """Product of two expansions in a multiplicative basis (free merge)."""
    out = {}
    for mu, c1 in d1.items():
        for nu, c2 in d2.items():
            key = shapes.union_parts(mu, nu)
            s = out.get(key)
            s = c1 * c2 if s is None else s + c1 * c2
            if s:
                out[key] = s
            else:
                del out[key]
    return out


@lru_cache(maxsize=None)
def _h_in_p(k: int):
    """h_k in the p basis: k h_k = sum_i p_i h_(k-i)."""
    if k == 0:
        return {(): Fraction(1)}
    out = {}
    for i in range(1, k + 1):
        for mu, c in _h_in_p(k - i).items():
            key = shapes.union_parts(mu, (i,))
            out[key] = out.get(key, 0) + Fraction(c, k)
    return {mu: c for mu, c in out.items() if c}


@lru_cache(maxsize=None)
def _p_in_h(k: int):
    """p_k in the h basis: p_k = k h_k - sum_(i<k) p_i h_(k-i)."""
    if k == 1:
        return {(1,): Fraction(1)}
    out = {(k,): Fraction(k)}
    for i in range(1, k):
        for mu, c in _p_in_h(i).items():
            key = shapes.union_parts(mu, (k - i,))
            out[key] = out.get(key, 0) - c
    return {mu: c for mu, c in out.items() if c}


@lru_cache(maxsize=None)
def _gen_prod(kind: str, mu: tuple):
    """Expansion of a product of generators indexed by mu.

    kind is 'e>p', 'h>p', 'p>e' or 'p>h'; the result lives in the target
    (multiplicative) basis, with Fraction coefficients.  The e tables are
    the h tables under omega, which swaps h_nu and e_nu and signs p_rho by
    (-1)^(|rho| - l(rho)).
    """
    d = sum(mu)
    if kind == "e>p":
        return {rho: (-1) ** (d - len(rho)) * c for rho, c in _gen_prod("h>p", mu).items()}
    if kind == "p>e":
        sign = (-1) ** (d - len(mu))
        return {nu: sign * c for nu, c in _gen_prod("p>h", mu).items()}
    table = _h_in_p if kind == "h>p" else _p_in_h
    out = {(): Fraction(1)}
    for part in mu:
        out = _merge(out, table(part))
    return out


@lru_cache(maxsize=None)
def _chi(lam: tuple, mu: tuple) -> int:
    """Irreducible S_n character value chi^lam_mu (Murnaghan-Nakayama)."""
    if not mu:
        return 1 if not lam else 0
    r, rest = mu[0], mu[1:]
    ell = len(lam)
    beta = [lam[i] + (ell - 1 - i) for i in range(ell)]
    bset = set(beta)
    total = 0
    for b in beta:
        nb = b - r
        if nb < 0 or nb in bset:
            continue
        height = sum(1 for x in beta if nb < x < b)
        newbeta = sorted((bset - {b}) | {nb}, reverse=True)
        newlam = tuple(nb2 - (ell - 1 - i) for i, nb2 in enumerate(newbeta))
        newlam = tuple(p for p in newlam if p > 0)
        total += (-1) ** height * _chi(newlam, rest)
    return total


@lru_cache(maxsize=None)
def _s_in_p(lam: tuple):
    """s_lam = sum_mu chi^lam_mu / z_mu p_mu."""
    d = sum(lam)
    out = {}
    for mu in shapes.partitions_of(d):
        c = _chi(lam, mu)
        if c:
            out[mu] = Fraction(c, shapes.z_stat(mu))
    return out


@lru_cache(maxsize=None)
def _p_in_s(mu: tuple):
    """p_mu = sum_lam chi^lam_mu s_lam."""
    d = sum(mu)
    out = {}
    for lam in shapes.partitions_of(d):
        c = _chi(lam, mu)
        if c:
            out[lam] = Fraction(c)
    return out


@lru_cache(maxsize=None)
def _p_in_m(mu: tuple):
    """p_mu in the m basis: m and h are dual for the Hall scalar product,
    so [m_lam] p_mu = <p_mu, h_lam> = z_mu [p_mu] h_lam."""
    z = shapes.z_stat(mu)
    return {lam: z * c for lam in shapes.partitions_of(sum(mu))
            if (c := _gen_prod("h>p", lam).get(mu))}


@lru_cache(maxsize=None)
def _m_in_p(lam: tuple):
    """m_lam in the p basis, by the same duality:
    [p_rho] m_lam = <m_lam, p_rho> / z_rho = [h_lam] p_rho / z_rho."""
    return {rho: c / shapes.z_stat(rho) for rho in shapes.partitions_of(sum(lam))
            if (c := _gen_prod("p>h", rho).get(lam))}


# ---------------------------------------------------------------------------
# SymFun
# ---------------------------------------------------------------------------


class SymFun:
    """A symmetric function tagged with the basis its terms refer to."""

    __slots__ = ("basis", "terms")

    def __init__(self, basis: str, terms=None):
        if basis not in BASES:
            raise ValueError(f"unknown basis {basis!r}")
        self.basis = basis
        clean = {}
        for mu, c in (terms or {}).items():
            mu = tuple(mu)
            if not isinstance(c, QTScalar):
                c = QTScalar(c)
            if c:
                clean[mu] = c
        self.terms = clean

    # -- constructors -------------------------------------------------
    @staticmethod
    def _raw(basis: str, terms: dict) -> "SymFun":
        """A SymFun over terms that are clean already: tuple keys, nonzero QTScalars."""
        res = SymFun.__new__(SymFun)
        res.basis, res.terms = basis, terms
        return res

    @staticmethod
    def zero(basis="p"):
        return SymFun(basis, {})

    @staticmethod
    def one(basis="p"):
        return SymFun(basis, {(): QT_ONE})

    # -- structure ----------------------------------------------------
    def __bool__(self):
        return bool(self.terms)

    def max_degree(self):
        return max((sum(mu) for mu in self.terms), default=0)

    def is_homogeneous(self):
        return len({sum(mu) for mu in self.terms}) <= 1

    def degree_components(self):
        """Map degree -> homogeneous component (same basis)."""
        out = {}
        for mu, c in self.terms.items():
            out.setdefault(sum(mu), {})[mu] = c
        return {d: SymFun(self.basis, t) for d, t in sorted(out.items())}

    # -- ring operations ----------------------------------------------
    def __add__(self, other):
        if not isinstance(other, SymFun):
            return NotImplemented
        if other.basis != self.basis:
            other = other.convert(self.basis)
        out = dict(self.terms)
        for mu, c in other.terms.items():
            s = out.get(mu, QT_ZERO) + c
            if s:
                out[mu] = s
            else:
                out.pop(mu, None)
        return SymFun._raw(self.basis, out)

    def __neg__(self):
        return SymFun._raw(self.basis, {mu: -c for mu, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        if not isinstance(c, QTScalar):
            c = QTScalar(c)
        if not c:
            return SymFun(self.basis, {})
        return SymFun._raw(self.basis, {mu: c * v for mu, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, SymFun):
            return mul(self, other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def __eq__(self, other):
        if not isinstance(other, SymFun):
            return NotImplemented
        if self.basis == other.basis:
            # a basis change is a bijection and terms are canonical
            # (partition keys, nonzero reduced QTScalars): compare as stored
            return self.terms == other.terms
        return self.convert("p").terms == other.convert("p").terms

    def __hash__(self):
        return hash(self.key())

    def key(self):
        """Canonical hashable digest (p-basis content)."""
        p = self.convert("p")
        return tuple(sorted((mu, c.key()) for mu, c in p.terms.items()))

    # -- conversions ----------------------------------------------------
    def convert(self, target: str) -> "SymFun":
        if target not in BASES:
            raise ValueError(f"unknown basis {target!r}")
        if target == self.basis:
            return self
        p = self if self.basis == "p" else sum_columns("p", self.terms, _TO_P[self.basis])
        return p if target == "p" else sum_columns(target, p.terms, _FROM_P[target])

    # -- serialization ---------------------------------------------------
    def to_json(self):
        order = sorted(self.terms, key=lambda mu: (sum(mu), mu), reverse=True)
        return {
            "basis": self.basis,
            "terms": [{"mu": list(mu), "c": self.terms[mu].to_json()} for mu in order],
        }

    @staticmethod
    def from_json(data):
        return SymFun(
            data["basis"],
            {tuple(t["mu"]): QTScalar.from_json(t["c"]) for t in data["terms"]},
        )

    def __repr__(self):
        if not self.terms:
            return "0"
        order = sorted(self.terms, key=lambda mu: (sum(mu), mu), reverse=True)
        bits = []
        for mu in order:
            idx = "".join(map(str, mu)) if mu else ""
            name = f"{self.basis}[{idx}]" if mu else "1"
            bits.append(f"({self.terms[mu]!r})*{name}")
        return " + ".join(bits)


# -- generator constructors --------------------------------------------


def e_(k: int) -> SymFun:
    return SymFun("e", {(k,): QT_ONE}) if k else SymFun.one("e")


def h_(k: int) -> SymFun:
    return SymFun("h", {(k,): QT_ONE}) if k else SymFun.one("h")


def p_(k: int) -> SymFun:
    return SymFun("p", {(k,): QT_ONE}) if k else SymFun.one("p")


def s_(mu) -> SymFun:
    return SymFun("s", {shapes.check_partition(mu): QT_ONE})


def m_(mu) -> SymFun:
    return SymFun("m", {shapes.check_partition(mu): QT_ONE})


def e_q_counts(counts) -> SymFun:
    """sum of k q^a e_rho over a map {(rho, a): k} of integer counts."""
    terms = {}
    for (rho, a), k in counts.items():
        terms.setdefault(rho, {})[(a, 0)] = k
    return SymFun("e", {rho: QTScalar(QTPoly(t)) for rho, t in terms.items()})


def mul(f: SymFun, g: SymFun) -> SymFun:
    """Exact product; free merge in a multiplicative basis, else via p."""
    basis = f.basis if f.basis == g.basis and f.basis in "ehpq" else "p"
    return SymFun._raw(basis, _merge(f.convert(basis).terms, g.convert(basis).terms))


def sum_columns(basis: str, coords, column) -> SymFun:
    """sum_lam coords[lam] * column(lam), a SymFun in basis.

    coords maps partitions to QTScalars and column(lam) is a dict nu ->
    coefficient (QTScalar, int or Fraction): the image of the basis
    element lam under a linear map.  The sum is taken in integers and
    normalized once per output coefficient, not once per (lam, nu) pair.

    A product c v has the int numerator of c times that of v over the
    product of their int denominators, and the denominator den(c) den(v).
    When both denominators are monomials, q^a t^b, the product is added
    into one Laurent int dict for nu, over one int denominator, shifted by
    q^(-a) t^(-b); the dict is scaled up to the lcm when a term brings a
    new int denominator.  In the end, with A and B the largest negative q-
    and t-exponents left (0 if none), the value is N / q^A t^B, N the dict
    shifted up by (A, B) over its int denominator, made coprime to it by
    one gcd pass.  This is canonical with no cofactor call: q^A t^B is
    monic, and a common factor of N and q^A t^B is a monomial, yet for
    A > 0 some term of N has q-exponent 0 (the one that set A) and for
    B > 0 some term has t-exponent 0, so q does not divide N when it
    divides the denominator, and neither does t.
    Products with any other denominator D are summed per (nu, D) the same
    way, without shifts, and each sum is normalized once as a QTScalar and
    added to nu's value, a Henrici sum.  A nu whose terms cancel is left
    out.  The order of the terms of the result is unspecified: its
    ==, key() and to_json() do not depend on it.
    """
    one = QT_ONE.den
    # nu, or (nu, D) -> [int dict, int denominator, shifted, alone]: alone
    # is the one product so far when it is 1 times a QTScalar, which is
    # the value as it stands, shared with the column
    mono, other = {}, {}
    for lam, c in coords.items():
        ct, cd, cden = c.num._t, c.num._d, c.den
        unit = c == QT_ONE
        ca = cb = None
        if len(cden._t) == 1:
            (ca, cb), = cden._t
        for nu, v in column(lam).items():
            if v.__class__ is QTScalar:
                vt, d, vden = v.num._t, cd * v.num._d, v.den
            else:
                vt, d, vden = None, cd * v.denominator, one
            if ca is not None and len(vden._t) == 1:
                (a, b), = vden._t
                a, b = a + ca, b + cb
                acc, key = mono, nu
            else:
                a = b = 0
                acc, key = other, (nu, cden * vden)
            slot = acc.get(key)
            if slot is None:
                acc[key] = slot = [{}, d, False, v if unit and vt is not None else None]
            else:
                slot[3] = None
            m = 1
            if slot[1] != d:
                big = slot[1] // gcd(slot[1], d) * d
                if big != slot[1]:
                    up = big // slot[1]
                    slot[0] = {e: x * up for e, x in slot[0].items()}
                    slot[1] = big
                m = big // d
            if a or b:
                slot[2] = True
            # the product scaled by m and shifted by (-a, -b): the one term
            # x q^i t^j times the int dict prod
            if vt is None:
                i, j, x, prod = -a, -b, v.numerator * m, ct
            elif len(ct) == 1 or len(vt) == 1:
                term, prod = (ct, vt) if len(ct) == 1 else (vt, ct)
                ((i, j), x), = term.items()
                i, j, x = i - a, j - b, x * m
            else:
                p = c.num * v.num  # ct vt is p._t times d // p._d
                i, j, x, prod = -a, -b, m * (d // p._d), p._t
            out = slot[0]
            get = out.get
            if i or j:
                for (i2, j2), x2 in prod.items():
                    e = (i + i2, j + j2)
                    out[e] = get(e, 0) + x * x2
            else:
                # keys of prod are reused as they are, and shared
                for e, x2 in prod.items():
                    out[e] = get(e, 0) + x * x2
    res = {}
    for nu, (t, d, shifted, alone) in mono.items():
        if alone is not None:
            if alone:
                res[nu] = alone
            continue
        t = {e: x for e, x in t.items() if x}
        if not t:
            continue
        den = one
        if shifted:
            sa, sb = map(min, zip(*t))
            if sa < 0 or sb < 0:
                sa, sb = min(sa, 0), min(sb, 0)
                t = {(i - sa, j - sb): x for (i, j), x in t.items()}
                den = _poly({(-sa, -sb): 1})
        res[nu] = QTScalar._raw(_reduced(t, d), den)
    for (nu, den), (t, d, _, s) in other.items():
        if s is None:
            s = QTScalar(_reduced({e: x for e, x in t.items() if x}, d), den)
        if nu in res:
            s = res[nu] + s
        if s:
            res[nu] = s
        else:
            res.pop(nu, None)
    return SymFun._raw(basis, res)


# ---------------------------------------------------------------------------
# hook Schur functions and the q basis
# ---------------------------------------------------------------------------


def hook_schur(j: int, k: int) -> SymFun:
    """s_(j|k), the Schur function of the hook (j+1, 1^k)."""
    return s_(shapes.hook(j, k))


def _qt_integers(rho: tuple) -> QTPoly:
    """prod_j [rho_j]_(qt), where [k]_u = 1 + u + ... + u^(k-1) is monic."""
    out = QTPoly(1)
    for part in rho:
        out = out * QTPoly({(i, i): 1 for i in range(part)})
    return out


def _one_minus_qt(k: int) -> QTPoly:
    return (QTPoly(1) - QTPoly.monomial(1, 1, 1)) ** k


@lru_cache(maxsize=None)
def _q_mu_in_p(mu: tuple):
    """q_mu in the p basis, from the hook expansion of h_d[X(1 - u)].

    h_d[X(1 - u)] = (1 - u) sum_k (-u)^k s_(d-k,1^k) (Macdonald, Symmetric
    Functions and Hall Polynomials, I.3) gives, at u = qt,
    q_d = (-qt)^(1-d) h_d[X(1 - qt)] / (1 - qt).  With
    1 - (qt)^k = (1 - qt) [k]_(qt) and d = |mu|,
    [p_rho] q_mu = [p_rho] h_mu (-1)^(d-l(mu)) (1 - qt)^(l(rho)-l(mu))
    prod_j [rho_j]_(qt) / (qt)^(d-l(mu)), where l(rho) >= l(mu).  The
    numerator has a nonzero constant term, so each entry is already
    reduced over its monomial denominator and takes no gcd.
    """
    k, ell = sum(mu) - len(mu), len(mu)
    den = QTPoly.monomial(1, k, k)
    return {rho: QTScalar._raw(_one_minus_qt(len(rho) - ell) * _qt_integers(rho)
                               * ((-1) ** k * c), den)
            for rho, c in _gen_prod("h>p", mu).items()}


def q_d(d: int) -> SymFun:
    """The q-basis generator q_d, in the s basis."""
    terms = {}
    for j in range(d):
        terms[shapes.hook(j, d - 1 - j)] = QTScalar.qt_monomial((-1) ** j, -j, -j)
    return SymFun("s", terms)


def q_mu(mu) -> SymFun:
    return SymFun("q", {shapes.check_partition(mu): QT_ONE})


@lru_cache(maxsize=None)
def _p_in_q(rho: tuple):
    """p_rho in the q basis, inverting the closed form of _q_mu_in_p:
    [q_mu] p_rho = [h_mu] p_rho (-qt)^(d-l(mu)) (1 - qt)^(l(mu)-l(rho))
    / prod_j [rho_j]_(qt), where l(mu) >= l(rho).  That denominator is
    monic and coprime to the numerator (a root of unity other than 1 in qt
    annuls it), so each entry is reduced as built and takes no gcd.
    """
    d, ell = sum(rho), len(rho)
    den = _qt_integers(rho)
    out = {}
    for mu, c in _gen_prod("p>h", rho).items():
        k = d - len(mu)
        out[mu] = QTScalar._raw(QTPoly.monomial((-1) ** k * c, k, k)
                                * _one_minus_qt(len(mu) - ell), den)
    return out


def expand_in_q(f: SymFun) -> SymFun:
    """Express f in the q_mu basis."""
    return f.convert("q")


#: the columns of each basis change, by basis: the p-expansion of the basis
#: element mu, and the expansion of p_mu in the basis
_TO_P = {
    "e": lambda mu: _gen_prod("e>p", mu),
    "h": lambda mu: _gen_prod("h>p", mu),
    "s": _s_in_p,
    "m": _m_in_p,
    "q": _q_mu_in_p,
}
_FROM_P = {
    "e": lambda mu: _gen_prod("p>e", mu),
    "h": lambda mu: _gen_prod("p>h", mu),
    "s": _p_in_s,
    "m": _p_in_m,
    "q": _p_in_q,
}


# ---------------------------------------------------------------------------
# Hall scalar product, involutions
# ---------------------------------------------------------------------------


def hall_scalar(f: SymFun, g: SymFun) -> QTScalar:
    """<s_lam, s_mu> = delta, extended bilinearly; mixed degrees pair to 0."""
    a, b = f.convert("s"), g.convert("s")
    total = QT_ZERO
    small, big = (a, b) if len(a.terms) <= len(b.terms) else (b, a)
    for mu, c in small.terms.items():
        d = big.terms.get(mu)
        if d:
            total = total + c * d
    return total


def omega(f: SymFun) -> SymFun:
    """The classical involution: omega p_k = (-1)^(k-1) p_k."""
    p = f.convert("p")
    out = {mu: c if (sum(mu) - len(mu)) % 2 == 0 else -c for mu, c in p.terms.items()}
    res = SymFun("p", out)
    return res.convert(f.basis)


def specialize_coeffs(f: SymFun, bind) -> SymFun:
    """Apply a q/t substitution to every coefficient."""
    return SymFun(f.basis, {mu: c.specialize(bind) for mu, c in f.terms.items()})


# ---------------------------------------------------------------------------
# plethystic evaluation
# ---------------------------------------------------------------------------


def plethys(f: SymFun, extra) -> dict:
    """f[X + E/z] by powers of z, from p_k[X + E/z] = p_k + extra(k) z^(-k).

    extra(k) is the QTScalar p_k[E].  Expanding each factor of p_mu over the
    sub-multisets S of the parts of mu, with s_k of the m_k parts equal to k,
    p_mu[X + E/z] = sum_S prod_k C(m_k, s_k) extra(k)^(s_k) p_(mu - S) z^(-|S|).
    The result maps j to the p coordinates of the z^(-j) part, a dict
    rho -> QTScalar; a power of z whose part cancels is left out.
    """
    out = {}
    for mu, c in f.convert("p").terms.items():
        mult = Counter(mu)
        for take in product(*(range(m + 1) for m in mult.values())):
            coef, rest, j = c, [], 0
            for (k, m), s in zip(mult.items(), take):
                if s:
                    coef = coef * (comb(m, s) * extra(k) ** s)
                    j += k * s
                rest += [k] * (m - s)
            part = out.setdefault(j, {})
            rho = tuple(rest)
            total = part.get(rho)
            total = coef if total is None else total + coef
            if total:
                part[rho] = total
            else:
                del part[rho]
    return {j: part for j, part in out.items() if part}


# ---------------------------------------------------------------------------
# LaTeX display, paper style
# ---------------------------------------------------------------------------


def to_latex(f: SymFun) -> str:
    if not f.terms:
        return "0"
    order = sorted(f.terms, key=lambda mu: (sum(mu), mu), reverse=True)
    bits = []
    for mu in order:
        idx = "".join(map(str, mu)) if max(mu, default=0) < 10 else ",".join(map(str, mu))
        base = f"{f.basis}_{{{idx}}}" if mu else ""
        c = f.terms[mu]
        if c == QT_ONE and mu:
            bits.append(base)
        else:
            coeff = repr(c)
            if "+" in coeff or "-" in coeff[1:]:
                coeff = f"\\left({coeff}\\right)"
            bits.append(f"{coeff}\\,{base}" if base else coeff)
    out = " + ".join(bits)
    return out.replace("+ -", "- ")
