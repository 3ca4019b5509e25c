"""Symmetric functions over Q(q,t).

A SymFun is a basis-tagged, finitely supported map from partitions to
QTScalar; sums of mixed degrees are allowed and all operations work
degreewise.  Supported bases: m, e, h, p, s, and the q-basis built from
the alternating hook-Schur combinations q_d.

The pivot basis for conversions is p: e and h reach it through Newton's
identities, s through Murnaghan-Nakayama characters, m through counting
the ways to merge the parts of mu into the rows of lam, and the q-basis
through the integer h<->p tables times a factor in qt, from
q_d = (-qt)^(1-d) h_d[X(1-qt)] / (1-qt).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

# linalg has no caller here; the import keeps ehall.linalg loaded for
# perfbench/tracer.py, which wraps linalg.inverse and linalg.nullspace by
# module name after importing ehall.cli and ehall.ehallops
from . import linalg  # noqa: F401
from . import shapes
from .coeffs import QT_ONE, QT_ZERO, QTPoly, QTScalar

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
            s = out.get(key, 0) + c1 * c2
            if s:
                out[key] = s
            else:
                out.pop(key, None)
    return out


@lru_cache(maxsize=None)
def _e_in_p(k: int):
    """e_k in the p basis: k e_k = sum_i (-1)^(i-1) p_i e_(k-i)."""
    if k == 0:
        return {(): Fraction(1)}
    out = {}
    for i in range(1, k + 1):
        sign = Fraction((-1) ** (i - 1), k)
        for mu, c in _e_in_p(k - i).items():
            key = shapes.union_parts(mu, (i,))
            out[key] = out.get(key, 0) + sign * c
    return {mu: c for mu, c in out.items() if c}


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
def _p_in_e(k: int):
    """p_k in the e basis, by inverting Newton's identity."""
    if k == 1:
        return {(1,): Fraction(1)}
    sign = Fraction((-1) ** (k - 1))
    out = {(k,): sign * k}
    for i in range(1, k):
        coef = -sign * Fraction((-1) ** (i - 1))
        for mu, c in _p_in_e(i).items():
            key = shapes.union_parts(mu, (k - i,))
            out[key] = out.get(key, 0) + coef * c
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
    (multiplicative) basis, with Fraction coefficients.
    """
    table = {"e>p": _e_in_p, "h>p": _h_in_p, "p>e": _p_in_e, "p>h": _p_in_h}[kind]
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
def _p_m_matrices(d: int):
    """(p-to-m, m-to-p) transition tables at degree d.

    The coefficient of m_lam in p_mu is the number of ways to send each
    part of mu to a row of lam so that row i receives parts summing to
    lam_i.  Such a lam is a coarsening of mu, so it dominates mu and comes
    no later in partitions_of order: the table is triangular, and the
    m-to-p table follows by forward substitution,
    m_mu = (p_mu - sum_(lam != mu) [m_lam] p_mu * m_lam) / [m_mu] p_mu.
    """
    parts = shapes.partitions_of(d)
    if d == 0:
        return ({(): {(): Fraction(1)}}, {(): {(): Fraction(1)}})
    placements = {}

    def count(mu, rows):
        # rows: the room left in each row of lam, sorted (rows are
        # interchangeable for the count)
        if not mu:
            return 1
        key = (mu, rows)
        if key not in placements:
            first, rest = mu[0], mu[1:]
            placements[key] = sum(
                count(rest, tuple(sorted(rows[:i] + (r - first,) + rows[i + 1:], reverse=True)))
                for i, r in enumerate(rows)
                if r >= first
            )
        return placements[key]

    p2m = {}
    for mu in parts:
        p2m[mu] = {nu: Fraction(c) for nu in parts if (c := count(mu, nu))}
    m2p = {}
    for mu in parts:
        acc = {mu: Fraction(1)}
        for lam, c in p2m[mu].items():
            if lam != mu:
                for nu, v in m2p[lam].items():
                    acc[nu] = acc.get(nu, 0) - c * v
        diag = p2m[mu][mu]
        m2p[mu] = {nu: acc[nu] / diag for nu in parts if acc.get(nu)}
    return p2m, m2p


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

    def coefficient(self, mu):
        return self.terms.get(tuple(mu), QT_ZERO)

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
        res = SymFun.__new__(SymFun)
        res.basis, res.terms = self.basis, out
        return res

    def __neg__(self):
        res = SymFun.__new__(SymFun)
        res.basis = self.basis
        res.terms = {mu: -c for mu, c in self.terms.items()}
        return res

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        if not isinstance(c, QTScalar):
            c = QTScalar(c)
        if not c:
            return SymFun(self.basis, {})
        res = SymFun.__new__(SymFun)
        res.basis = self.basis
        res.terms = {mu: c * v for mu, v in self.terms.items()}
        return res

    def __mul__(self, other):
        if isinstance(other, SymFun):
            return mul(self, other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def __eq__(self, other):
        if not isinstance(other, SymFun):
            return NotImplemented
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
        p = self._to_p()
        if target == "p":
            return p
        return p._from_p(target)

    def _to_p(self):
        b = self.basis
        if b == "p":
            return self
        out = {}
        for mu, c in self.terms.items():
            if b in ("e", "h"):
                exp = _gen_prod(b + ">p", mu)
            elif b == "s":
                exp = _s_in_p(mu)
            elif b == "m":
                exp = _p_m_matrices(sum(mu))[1][mu]
            elif b == "q":
                exp = _q_mu_in_p(mu)
            for nu, f in exp.items():
                s = out.get(nu, QT_ZERO) + c * f
                if s:
                    out[nu] = s
                else:
                    out.pop(nu, None)
        res = SymFun.__new__(SymFun)
        res.basis, res.terms = "p", out
        return res

    def _from_p(self, target):
        assert self.basis == "p"
        if target == "q":
            return expand_in_q(self)
        out = {}
        for mu, c in self.terms.items():
            if target in ("e", "h"):
                exp = _gen_prod("p>" + target, mu)
            elif target == "s":
                exp = _p_in_s(mu)
            elif target == "m":
                exp = _p_m_matrices(sum(mu))[0][mu]
            for nu, f in exp.items():
                s = out.get(nu, QT_ZERO) + c * f
                if s:
                    out[nu] = s
                else:
                    out.pop(nu, None)
        res = SymFun.__new__(SymFun)
        res.basis, res.terms = target, out
        return res

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
    a, b = f.convert(basis), g.convert(basis)
    out = {}
    for mu, c1 in a.terms.items():
        for nu, c2 in b.terms.items():
            key = shapes.union_parts(mu, nu)
            s = out.get(key, QT_ZERO) + c1 * c2
            if s:
                out[key] = s
            else:
                out.pop(key, None)
    return SymFun(basis, out)


# ---------------------------------------------------------------------------
# hook Schur functions and the q basis
# ---------------------------------------------------------------------------


def hook_schur(j: int, k: int) -> SymFun:
    """s_(j|k), the Schur function of the hook (j+1, 1^k)."""
    return s_(shapes.hook(j, k))


def _one_minus_qt_powers(rho: tuple) -> QTPoly:
    """prod_j (1 - (qt)^rho_j): the plethysm X -> X(1 - qt) on p_rho."""
    out = QTPoly(1)
    for part in rho:
        out = out * (QTPoly(1) - QTPoly.monomial(1, part, part))
    return out


def _q_scale(mu: tuple) -> QTPoly:
    """prod_i (-qt)^(mu_i - 1) (1 - qt), so that q_mu = h_mu[X(1 - qt)] / it."""
    d, ell = sum(mu), len(mu)
    one_minus_qt = QTPoly(1) - QTPoly.monomial(1, 1, 1)
    return QTPoly.monomial((-1) ** (d - ell), d - ell, d - ell) * one_minus_qt**ell


@lru_cache(maxsize=None)
def _q_mu_in_p(mu: tuple):
    """q_mu in the p basis, from the hook expansion of h_d[X(1 - u)].

    h_d[X(1 - u)] = (1 - u) sum_k (-u)^k s_(d-k,1^k) (Macdonald, Symmetric
    Functions and Hall Polynomials, I.3) gives, at u = qt,
    q_d = (-qt)^(1-d) h_d[X(1 - qt)] / (1 - qt).  So
    [p_rho] q_mu = [p_rho] h_mu * prod_j (1 - (qt)^rho_j) / _q_scale(mu).
    """
    scale = _q_scale(mu)
    return {rho: QTScalar(_one_minus_qt_powers(rho) * c, scale)
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
def _q_inverse(d: int):
    """Transition matrix from p- to q_mu-coordinates at degree d.

    Row i, column j is [q_mu] p_rho for mu, rho the i-th and j-th partitions
    of d: inverting the closed form of _q_mu_in_p,
    [q_mu] p_rho = [h_mu] p_rho * _q_scale(mu) / prod_j (1 - (qt)^rho_j).
    """
    parts = shapes.partitions_of(d)
    index = {mu: i for i, mu in enumerate(parts)}
    scales = [_q_scale(mu) for mu in parts]
    inv = [[QT_ZERO] * len(parts) for _ in parts]
    for j, rho in enumerate(parts):
        den = _one_minus_qt_powers(rho)
        for mu, c in _gen_prod("p>h", rho).items():
            i = index[mu]
            inv[i][j] = QTScalar(scales[i] * c, den)
    return inv


def expand_in_q(f: SymFun) -> SymFun:
    """Express f in the q_mu basis: per degree, _q_inverse times the p-coordinates."""
    out = {}
    for d, comp in f.convert("p").degree_components().items():
        parts = shapes.partitions_of(d)
        inv = _q_inverse(d)
        vec = [comp.terms.get(nu, QT_ZERO) for nu in parts]
        for i, mu in enumerate(parts):
            c = QT_ZERO
            for j in range(len(parts)):
                if vec[j]:
                    c = c + inv[i][j] * vec[j]
            if c:
                out[mu] = c
    return SymFun("q", out)


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


@dataclass(frozen=True)
class Alphabet:
    """A formal plethystic argument: base_scale * x plus signed Laurent
    monomials in q, t, z.

    Evaluation is defined on power sums:
      p_k[A] = base_scale(q^k,t^k) * p_k(x) + sum_extras sign * mono^k,
    where a constant base_scale is left untouched (a constant alphabet
    multiplies power sums linearly).
    """

    base_scale: QTScalar
    extras: tuple = ()  # entries (sign, eq, et, ez)

    @staticmethod
    def x():
        return Alphabet(QT_ONE)

    @staticmethod
    def scaled(c):
        if not isinstance(c, QTScalar):
            c = QTScalar(c)
        return Alphabet(c)

    @staticmethod
    def x_plus_m_over_z():
        """x + M/z with M = (1-t)(1-q)."""
        return Alphabet(QT_ONE, ((1, 0, 0, -1), (-1, 0, 1, -1), (-1, 1, 0, -1), (1, 1, 1, -1)))

    @staticmethod
    def x_minus_tfrac_over_z():
        """x - (t-1)/(tz), the argument of the composition operators."""
        return Alphabet(QT_ONE, ((1, 0, -1, -1), (-1, 0, 0, -1)))

    def power_sum_image(self, k: int):
        """p_k[A] as a list of (z-exponent, SymFun in p basis)."""
        out = []
        if self.base_scale:
            if self.base_scale.is_constant():
                c = self.base_scale
            else:
                from .coeffs import QT_Q, QT_T

                c = self.base_scale.specialize({"q": QT_Q**k, "t": QT_T**k})
            out.append((0, SymFun("p", {(k,): c})))
        for sign, eq, et, ez in self.extras:
            mono = QTScalar.qt_monomial(sign, eq * k, et * k)
            out.append((ez * k, SymFun("p", {(): mono})))
        return out


class ZLaurent:
    """A finite Laurent series in z with SymFun coefficients."""

    def __init__(self, coeffs):
        self.coeffs = {k: v for k, v in coeffs.items() if v}

    def coeff(self, k) -> SymFun:
        if k in self.coeffs:
            return self.coeffs[k]
        return SymFun.zero("p")

    def exponents(self):
        return sorted(self.coeffs)


def plethys(f: SymFun, alphabet: Alphabet) -> ZLaurent:
    """f[A] as a Laurent series in z (exact and finite for these alphabets)."""
    p = f.convert("p")
    total = {}
    for mu, c in p.terms.items():
        series = {0: SymFun("p", {(): QT_ONE})}
        for part in mu:
            image = alphabet.power_sum_image(part)
            nxt = {}
            for z1, g1 in series.items():
                for z2, g2 in image:
                    z = z1 + z2
                    prod = mul(g1, g2)
                    nxt[z] = nxt[z] + prod if z in nxt else prod
            series = nxt
        for z, g in series.items():
            g = g.scale(c)
            total[z] = total[z] + g if z in total else g
    return ZLaurent(total)


def plethys_whole(f: SymFun, alphabet: Alphabet) -> SymFun:
    """f[A] for an alphabet with no z content (single z^0 coefficient)."""
    series = plethys(f, alphabet)
    assert series.exponents() in ([], [0]), "alphabet has z content"
    return series.coeff(0)


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
