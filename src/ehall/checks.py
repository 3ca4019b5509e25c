"""Positivity predicates and the conjecture-verification harness.

Verdicts come in three statuses:
  * holds    — a proved identity or a positivity statement that was verified;
  * fails    — a non-conjectural statement that came out false (fatal);
  * reported — a conjectural statement: the outcome (including any
               counterexample witness) is recorded, never fatal.

Seeds f of degree d are pushed through theta to f^(a,b) = Theta_(a,b)(f)(1);
e_(m,n) and h_(m,n) abbreviate the e_d / h_d seeds at (m,n) = (ad,bd),
d = gcd(m,n).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, gcd

from . import ehallops, macdonald, rectcomb, shapes, symfun
from .coeffs import QT_ONE, QT_T, QTScalar
from .ehallops import c_alpha, theta
from .symfun import SymFun, hall_scalar, specialize_coeffs


@dataclass
class Verdict:
    name: str
    params: dict
    status: str  # holds | fails | reported
    witness: tuple | None = None  # (partition, coefficient repr)
    detail: str = ""
    runtime_millis: int = 0

    def ok(self) -> bool:
        return self.status != "fails"

    def to_json(self):
        out = {
            "name": self.name,
            "params": {k: list(v) if isinstance(v, tuple) else v for k, v in self.params.items()},
            "status": self.status,
            "runtimeMillis": self.runtime_millis,
        }
        if self.witness is not None:
            out["witness"] = {"mu": list(self.witness[0]), "coefficient": self.witness[1]}
        if self.detail:
            out["detail"] = self.detail
        return out


def _positive_in(f: SymFun, basis: str, name: str, params) -> Verdict:
    g = f.convert(basis)
    for mu in sorted(g.terms, key=lambda m: (sum(m), m)):
        c = g.terms[mu]
        if not c.is_polynomial():
            return Verdict(name, params, "fails", (mu, repr(c)), "non-polynomial coefficient")
        for coeff in c.num.terms.values():
            if coeff < 0 or coeff.denominator != 1:
                return Verdict(name, params, "fails", (mu, repr(c)), "negative or fractional coefficient")
    return Verdict(name, params, "holds")


def is_schur_positive(f: SymFun, name: str = "schur-positive", params=None) -> Verdict:
    """Every Schur coefficient in N[q,t]."""
    return _positive_in(f, "s", name, params or {})


def is_e_positive(f: SymFun, name: str = "e-positive", params=None) -> Verdict:
    """Every e-basis coefficient in N[q] (or N[q,r] after t -> 1+r)."""
    return _positive_in(f, "e", name, params or {})


# ---------------------------------------------------------------------------
# staircase shift exponents
# ---------------------------------------------------------------------------


def shift_alpha(m: int, n: int) -> int:
    """Cells between the (m-1,n)- and (m,n)-staircases."""
    if m < 2:
        raise ValueError("alpha needs m >= 2")
    return sum((k - 1) * m // n - (k - 1) * (m - 1) // n for k in range(1, n + 1))


def shift_alpha_prime(m: int, n: int) -> int:
    """Transposed version: points between the (m,n-1)- and (m,n)-staircases."""
    if n < 2:
        raise ValueError("alpha' needs n >= 2")
    return shift_alpha(n, m)


def shift_beta(m: int, n: int) -> int:
    return shift_alpha(m, n) - gcd(m, n) + 1


# ---------------------------------------------------------------------------
# dimension functionals
# ---------------------------------------------------------------------------


def delta_dim(f: SymFun) -> QTScalar:
    """<p_1^n, f> for homogeneous f of degree n."""
    if not f.is_homogeneous():
        raise ValueError("delta_dim needs a homogeneous input")
    n = f.max_degree()
    # <p_mu, p_nu> = z_mu delta; p_1^n pairs only with the p_(1^n) component
    coeff = f.convert("p").terms.get((1,) * n if n else (), None)
    if coeff is None:
        return QTScalar.zero()
    return coeff * QTScalar(factorial(n))


def eps_dim(f: SymFun) -> QTScalar:
    """<e_n, f> for homogeneous f of degree n."""
    if not f.is_homogeneous():
        raise ValueError("eps_dim needs a homogeneous input")
    n = f.max_degree()
    return hall_scalar(symfun.e_(n), f)


# ---------------------------------------------------------------------------
# seed constructions
# ---------------------------------------------------------------------------


def _mono(c, eq, et):
    return QTScalar.qt_monomial(c, eq, et)


def schur_seed(mu) -> SymFun:
    """(-qt)^(-iota(mu)) s_mu."""
    i = shapes.iota(mu)
    return symfun.s_(mu).scale(_mono((-1) ** i, -i, -i))


def monomial_seed(mu) -> SymFun:
    """(-1)^(d - l(mu)) m_mu."""
    return symfun.m_(mu).scale(QTScalar((-1) ** (sum(mu) - len(mu))))


def hook_seed(j: int, k: int) -> SymFun:
    """(-qt)^(-j) s_(j|k) (iota of the hook is j)."""
    return symfun.hook_schur(j, k).scale(_mono((-1) ** j, -j, -j))


def f_ab(seed: SymFun, a: int, b: int) -> SymFun:
    """f^(a,b) = Theta_(a,b)(seed)(1)."""
    return theta(a, b, seed)


def e_mn(m: int, n: int) -> SymFun:
    """e_(m,n) = Theta_(a,b)(e_d)(1) with (m,n) = (ad,bd)."""
    d = gcd(m, n)
    return theta(m // d, n // d, symfun.e_(d))


def h_mn_normalized(m: int, n: int) -> SymFun:
    """(-qt)^(1-d) h_(m,n)."""
    d = gcd(m, n)
    f = theta(m // d, n // d, symfun.h_(d))
    return f.scale(_mono((-1) ** (1 - d), 1 - d, 1 - d))


def bar(f: SymFun) -> SymFun:
    """First-column removal, extended linearly over Schur indices."""
    g = f.convert("s")
    out = SymFun.zero("s")
    for mu, c in g.terms.items():
        out = out + SymFun("s", {shapes.bar(mu): c})
    return out


def at_t1(f: SymFun) -> SymFun:
    return specialize_coeffs(f, {"t": QT_ONE})


def at_t1r(f: SymFun) -> SymFun:
    """t -> 1+r; the r-variable is carried in the t slot of the coefficients."""
    return specialize_coeffs(f, {"t": QT_ONE + QT_T})


def at_qt1(f: SymFun) -> SymFun:
    """q = t = 1 (the CLI's ``--at qt=1`` instead sets t = 1/q)."""
    return specialize_coeffs(f, {"q": QT_ONE, "t": QT_ONE})


def max_q_shift(lhs: SymFun, rhs: SymFun, limit: int = 30):
    """Largest s >= 0 with q^s * lhs Schur-dominated by rhs, or None."""
    best = None
    for s in range(limit + 1):
        diff = rhs - lhs.scale(_mono(1, s, 0))
        if is_schur_positive(diff).status == "holds":
            best = s
        elif best is not None:
            break
    return best


# ---------------------------------------------------------------------------
# the harness
# ---------------------------------------------------------------------------


def _coprime_pairs(d: int, limit: int):
    """Coprime (a,b), a,b >= 1, with ad <= limit and bd <= limit."""
    out = []
    for a in range(1, limit // d + 1):
        for b in range(1, limit // d + 1):
            if gcd(a, b) == 1:
                out.append((a, b))
    return out


def _seed_grid(limit):
    """(mu, a, b) for every mu of degree d <= limit and coprime (a, b) with
    ad, bd <= limit: the grid of the seed checks."""
    for d in range(1, limit + 1):
        for mu in shapes.partitions_of(d):
            for a, b in _coprime_pairs(d, limit):
                yield mu, a, b


def _hook_differences(limit):
    """(params, f_ab(hook(j,k)) - q f_ab(hook(j+1,k-1))) over the hook grid,
    j + k = d - 1 for 2 <= d <= limit."""
    for d in range(2, limit + 1):
        for j in range(d - 1):
            k = d - 1 - j
            for a, b in _coprime_pairs(d, limit):
                diff = f_ab(hook_seed(j, k), a, b) - f_ab(hook_seed(j + 1, k - 1), a, b).scale(
                    _mono(1, 1, 0))
                yield {"j": j, "k": k, "a": a, "b": b}, diff


def _grid_mn(limit, min_m=1, min_n=1):
    for m in range(min_m, limit + 1):
        for n in range(min_n, limit + 1):
            yield m, n


def _conjectural(v: Verdict) -> Verdict:
    if v.status == "fails":
        v.detail = ("counterexample to a conjecture: " + v.detail).strip()
    v.status = "reported"
    return v


def _check_schur_seed(limit):
    for mu, a, b in _seed_grid(limit):
        yield _conjectural(is_schur_positive(
            f_ab(schur_seed(mu), a, b), "schur-seed", {"mu": mu, "a": a, "b": b}))


def _check_monomial_seed(limit):
    for mu, a, b in _seed_grid(limit):
        yield _conjectural(is_schur_positive(
            f_ab(monomial_seed(mu), a, b), "monomial-seed", {"mu": mu, "a": a, "b": b}))


def _check_incl_e(limit):
    for m, n in _grid_mn(limit, min_m=2):
        diff = e_mn(m, n) - e_mn(m - 1, n).scale(_mono(1, shift_alpha(m, n), 0))
        yield _conjectural(is_schur_positive(diff, "incl-e", {"m": m, "n": n}))


def _check_incl_bar(limit):
    for m, n in _grid_mn(limit, min_n=2):
        diff = bar(e_mn(m, n)) - bar(e_mn(m, n - 1)).scale(
            _mono(1, shift_alpha_prime(m, n), 0))
        yield _conjectural(is_schur_positive(diff, "incl-bar", {"m": m, "n": n}))


def _check_incl_hook(limit):
    for params, diff in _hook_differences(limit):
        yield _conjectural(is_schur_positive(diff, "incl-hook", params))


def _check_incl_eh(limit):
    for m, n in _grid_mn(limit, min_m=2):
        diff = h_mn_normalized(m, n) - e_mn(m - 1, n).scale(_mono(1, shift_beta(m, n), 0))
        yield _conjectural(is_schur_positive(diff, "incl-eh", {"m": m, "n": n}))


def _check_incl_eh_bar(limit):
    for m, n in _grid_mn(limit, min_n=2):
        lhs = bar(e_mn(m, n - 1))
        rhs = bar(h_mn_normalized(m, n))
        s = max_q_shift(lhs, rhs)
        v = Verdict("incl-eh-bar", {"m": m, "n": n}, "reported",
                    detail=f"maximal shift {s}; beta'(staircase prediction) "
                           f"{shift_alpha_prime(m, n) - gcd(m, n) + 1}")
        if s is None:
            v.detail = "no q-shift makes the inclusion hold"
        yield v


def _check_transpose(limit):
    for mu, a, b in _seed_grid(limit):
        if not (1 <= a <= b):
            continue
        seed = schur_seed(mu)
        diff = bar(f_ab(seed, a, b)) - bar(f_ab(seed, b, a))
        yield _conjectural(is_schur_positive(
            diff, "transpose", {"mu": mu, "a": a, "b": b}))


def _check_t1_mult(limit):
    pairs = [(1, 1), (1, 2), (2, 1), (1, 3)]
    seeds = [(symfun.e_(1), symfun.e_(1)), (symfun.e_(1), symfun.e_(2)),
             (symfun.e_(2), symfun.e_(2)), (symfun.e_(1), symfun.h_(2)),
             (symfun.p_(2), symfun.e_(1))]
    for a, b in pairs:
        for f, g in seeds:
            if b * (f.max_degree() + g.max_degree()) > limit + 2:
                continue
            lhs = at_t1(theta(a, b, symfun.mul(f, g)))
            rhs = symfun.mul(at_t1(theta(a, b, f)), at_t1(theta(a, b, g)))
            ok = lhs == rhs
            v = Verdict("t1-mult", {"a": a, "b": b,
                                    "degrees": (f.max_degree(), g.max_degree())},
                        "reported", detail="equal" if ok else "NOT equal")
            if not ok:
                v.witness = ((), "lhs != rhs")
            yield v


def _check_epos_h(limit):
    for d in range(1, limit + 1):
        for a, b in _coprime_pairs(d, limit):
            f = at_t1r(f_ab(symfun.h_(d), a, b)).scale(QTScalar((-1) ** (d - 1)))
            yield _conjectural(is_e_positive(f, "epos-h", {"d": d, "a": a, "b": b}))


def _check_epos_hook_r(limit):
    for params, diff in _hook_differences(limit):
        yield _conjectural(is_e_positive(at_t1r(diff), "epos-hook-r", params))


def _check_epos_m_r(limit):
    for mu, a, b in _seed_grid(limit):
        f = at_t1r(f_ab(monomial_seed(mu), a, b))
        yield _conjectural(is_e_positive(f, "epos-m-r", {"mu": mu, "a": a, "b": b}))


def _check_epos_e_r(limit):
    for m, n in _grid_mn(limit, min_m=2):
        alpha = shift_alpha(m, n)
        diff = at_t1r(e_mn(m, n)) - at_t1r(e_mn(m - 1, n)).scale(_mono(1, alpha, 0))
        yield _conjectural(is_e_positive(diff, "epos-e-r", {"m": m, "n": n}))
        beta = shift_beta(m, n)
        diff2 = at_t1r(h_mn_normalized(m, n)) - at_t1r(e_mn(m - 1, n)).scale(_mono(1, beta, 0))
        yield _conjectural(is_e_positive(diff2, "epos-e-r",
                                         {"m": m, "n": n, "variant": "h"}))


def _check_retours(limit):
    for d in range(1, limit + 1):
        for alpha in shapes.compositions_of(d):
            for a, b in _coprime_pairs(d, limit):
                lhs = at_t1(f_ab(c_alpha(alpha), a, b))
                rhs = rectcomb.path_enumerator(a * d, b * d, returns_at=alpha)
                ok = lhs == rhs
                v = Verdict("retours", {"alpha": alpha, "a": a, "b": b},
                            "reported", detail="equal" if ok else "NOT equal")
                if not ok:
                    v.witness = ((), "lhs != rhs")
                yield v


def delta_formula(a: int, b: int, mu) -> Fraction:
    """binom(bd, b*mu) a^(bd - l(mu)) prod k^(bk) over parts k of mu."""
    d = sum(mu)
    n = b * d
    multinomial = factorial(n)
    for k in mu:
        multinomial //= factorial(b * k)
    val = Fraction(multinomial) * a ** (n - len(mu))
    for k in mu:
        val *= Fraction(k) ** (b * k)
    return val


def eps_formula(a: int, b: int, mu) -> Fraction:
    """prod binom((a+b)k, bk) / (a+b)^l(mu) over parts k of mu."""
    val = Fraction(1)
    for k in mu:
        val *= Fraction(comb((a + b) * k, b * k), a + b)
    return val


def q_mu_ab_at_11(a: int, b: int, mu) -> SymFun:
    """q_mu^(a,b)(x;1,1), computed through the operators."""
    f = SymFun.one("p")
    for k in mu:
        f = symfun.mul(f, at_qt1(theta(a, b, symfun.q_d(k))))
    return f


def _check_dim(limit, which):
    for mu, a, b in _seed_grid(limit):
        f = q_mu_ab_at_11(a, b, mu)
        if which == "delta":
            got = delta_dim(f).as_fraction()
            want = delta_formula(a, b, mu)
        else:
            got = eps_dim(f).as_fraction()
            want = eps_formula(a, b, mu)
        ok = got == want
        v = Verdict(f"dim-{which}", {"mu": mu, "a": a, "b": b},
                    "holds" if ok else "fails",
                    detail=f"got {got}, formula {want}")
        if not ok:
            v.witness = (tuple(mu), str(got))
        yield v


def _check_qt1_formula(limit):
    for d in range(1, limit + 1):
        for a, b in _coprime_pairs(d, limit):
            lhs = at_qt1(theta(a, b, symfun.q_d(d)))
            rhs = rectcomb._bizley_generator(a, b, d)
            ok = lhs == rhs
            v = Verdict("qt1-formula", {"d": d, "a": a, "b": b},
                        "holds" if ok else "fails",
                        detail="q_d^(a,b)(x;1,1) == (1/a) e_(bd)[ad x]" if ok else "mismatch")
            if not ok:
                v.witness = ((), "lhs != rhs")
            yield v


CHECKS = {
    "schur-seed": _check_schur_seed,
    "monomial-seed": _check_monomial_seed,
    "incl-e": _check_incl_e,
    "incl-bar": _check_incl_bar,
    "incl-hook": _check_incl_hook,
    "incl-eh": _check_incl_eh,
    "incl-eh-bar": _check_incl_eh_bar,
    "transpose": _check_transpose,
    "t1-mult": _check_t1_mult,
    "epos-h": _check_epos_h,
    "epos-hook-r": _check_epos_hook_r,
    "epos-m-r": _check_epos_m_r,
    "epos-e-r": _check_epos_e_r,
    "retours": _check_retours,
    "dim-delta": lambda limit: _check_dim(limit, "delta"),
    "dim-eps": lambda limit: _check_dim(limit, "eps"),
    "qt1-formula": _check_qt1_formula,
}

#: checks that are proved statements; a failure there is fatal
NON_CONJECTURAL = {"dim-delta", "dim-eps", "qt1-formula"}


def run_check(name: str, limit: int = 4):
    """Run one named check over its parameter grid; list of Verdicts."""
    if name not in CHECKS:
        raise ValueError(f"unknown check {name!r}; known: {sorted(CHECKS)}")
    out = []
    t0 = time.monotonic()
    for v in CHECKS[name](limit):
        t1 = time.monotonic()
        v.runtime_millis = int((t1 - t0) * 1000)
        t0 = t1
        out.append(v)
    return out


def run_all(limit: int = 4, names=None):
    verdicts = []
    for name in names or sorted(CHECKS):
        verdicts.extend(run_check(name, limit))
    return verdicts


def report_json(verdicts) -> str:
    return json.dumps([v.to_json() for v in verdicts], indent=2)


def exit_code(verdicts) -> int:
    """0 iff no non-conjectural failures."""
    bad = [v for v in verdicts if v.status == "fails"]
    return 2 if bad else 0
