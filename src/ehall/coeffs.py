"""Exact arithmetic in the field Q(q,t).

QTPoly is a sparse bivariate polynomial with arbitrary-precision rational
coefficients; QTScalar is a gcd-reduced fraction of two QTPolys with a
monic denominator (graded lexicographic order, q before t).  Every
coefficient appearing anywhere in the library is a QTScalar, including
Laurent constants like (-qt)^(-j), whose negative exponents live in the
denominator.

A QTPoly coefficient is a plain ``int`` when it is integral and a
``Fraction`` only when it is not: no coefficient is ever a float or a
Fraction with denominator 1.  Integer-only arithmetic therefore stays in
machine-friendly ints, and since ``str``, ``==`` and ``hash`` agree between
the two types the wire format and memo keys are unaffected.  Reduction of
a fraction with two non-constant sides is one cofactor call in sympy's
sparse ring Z[q,t], after clearing coefficient denominators, unless the
denominator is a monomial: then only the common monomial content cancels.
Sums of reduced values are reduced the way Henrici adds fractions: a
polynomial plus a fraction needs no gcd, two fractions are reduced only
against the gcd of their denominators, and that gcd is a monomial, taken
without a cofactor call, when either denominator is one.  Sums and
products of two polynomials (denominator 1) are canonical as they stand
and skip normalization altogether.

Specialization at polynomial values (t = 1, q = t = 1, t = 1 + r)
substitutes into the numerator and the denominator as QTPolys, one row of
equal t-exponent at a time, and reduces the quotient once; Laurent values
such as t = 1/q evaluate each term in the field (QTPoly.subs).
QTPoly.div_binomial divides exactly by a binomial q^a - t^b, row by row
in the t-exponent, or reports that the division leaves a remainder; it
takes no gcd.

All values are immutable after construction and safe to share.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import itemgetter, sub


class PoleError(ArithmeticError):
    """A specialization made a denominator vanish."""


def _grlex_key(expt):
    eq, et = expt
    return (eq + et, eq)


def _coef(c):
    """c as an int when integral, else as a Fraction."""
    if c.__class__ is not Fraction:
        if c.__class__ is int:
            return c
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _from_terms(terms):
    """QTPoly over an exponent -> int/Fraction dict, dropping zeros and
    turning integral Fractions into ints."""
    clean = {}
    for e, c in terms.items():
        if c:
            if c.__class__ is Fraction and c.denominator == 1:
                c = c.numerator
            clean[e] = c
    res = QTPoly.__new__(QTPoly)
    res.terms = clean
    res._hash = None
    return res


def _denominator_lcm(terms):
    scale = 1
    for c in terms.values():
        if c.__class__ is Fraction:
            scale = lcm(scale, c.denominator)
    return scale


def _scaled(terms, scale):
    """The coefficients times scale, a multiple of every denominator: ints."""
    if scale == 1:
        return terms
    return {e: c * scale if c.__class__ is int else c.numerator * (scale // c.denominator)
            for e, c in terms.items()}


def _div_rows(rows, a, b):
    """The quotient of P by q^a - t^b (b > 0) as dense rows, or None.

    rows[j] is the row of t-exponent j of P, a list over the q-exponents.
    From P_j = q^a Q_j - Q_(j-b), the quotient's rows are Q_(j-b) =
    q^a Q_j - P_j, from the top row of P down.  Each Q_j must end below
    q-exponent width - a, and the b lowest rows of P must be q^a Q_j.
    """
    width = len(rows[0])
    w = width - a
    if w <= 0 or len(rows) <= b:
        return None
    pad = [0] * a
    quo = [None] * (len(rows) - b)
    upper = [0] * w
    for j in range(len(quo) - 1, -1, -1):
        if j + b < len(quo):
            upper = quo[j + b]
        row = list(map(sub, pad + upper, rows[j + b]))
        if any(row[w:]):
            return None
        quo[j] = row[:w]
    for j in range(b):
        if rows[j] != pad + (quo[j] if j < len(quo) else [0] * w):
            return None
    return quo


def _power(cache, base, n):
    """base**n, extending the list cache of base**0, base**1, ..."""
    while len(cache) <= n:
        cache.append(cache[-1] * base)
    return cache[n]


class QTPoly:
    """Sparse polynomial in q, t over Q.  Exponents are nonnegative."""

    __slots__ = ("terms", "_hash")

    def __init__(self, terms=None):
        if terms is None:
            terms = {}
        elif isinstance(terms, (int, Fraction)):
            terms = {(0, 0): terms}
        clean = {}
        for (eq, et), c in terms.items():
            if eq < 0 or et < 0:
                raise ValueError("QTPoly exponents must be nonnegative")
            c = _coef(c)
            if c:
                clean[(eq, et)] = c
        self.terms = clean
        self._hash = None

    @staticmethod
    def monomial(c, eq, et):
        return QTPoly({(eq, et): c})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, QTPoly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = QTPoly(other)
        return self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self.terms.items()))
        return self._hash

    def __add__(self, other):
        if not isinstance(other, QTPoly):
            other = QTPoly(other)
        out = dict(self.terms)
        get = out.get
        for e, c in other.terms.items():
            out[e] = get(e, 0) + c
        return _from_terms(out)

    def __neg__(self):
        res = QTPoly.__new__(QTPoly)
        res.terms = {e: -c for e, c in self.terms.items()}
        res._hash = None
        return res

    def __sub__(self, other):
        if not isinstance(other, QTPoly):
            other = QTPoly(other)
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, QTPoly):
            c0 = _coef(other)
            if not c0:
                return QTPoly()
            return _from_terms({e: c * c0 for e, c in self.terms.items()})
        # multiply over Z and divide once: Fraction products are far dearer
        s1 = _denominator_lcm(self.terms)
        s2 = _denominator_lcm(other.terms)
        t2 = _scaled(other.terms, s2).items()
        out = {}
        get = out.get
        for (a1, b1), c1 in _scaled(self.terms, s1).items():
            for (a2, b2), c2 in t2:
                e = (a1 + a2, b1 + b2)
                out[e] = get(e, 0) + c1 * c2
        if s1 * s2 != 1:
            d = s1 * s2
            out = {e: Fraction(c, d) for e, c in out.items()}
        return _from_terms(out)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("use QTScalar for negative powers")
        result = QTPoly(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def leading(self):
        """Leading (exponent, coeff) under grlex with q before t."""
        e = max(self.terms, key=_grlex_key)
        return e, self.terms[e]

    def is_constant(self):
        terms = self.terms
        return not terms or (len(terms) == 1 and (0, 0) in terms)

    def const(self):
        return self.terms.get((0, 0), 0)

    def div_binomial(self, a, b):
        """The exact quotient self / (q^a - t^b), or None when the division
        leaves a remainder.  a, b >= 0, not both 0.

        q^a - t^b vanishes at q = t = 1, so a nonzero coefficient sum is
        a remainder at once.  Otherwise the division runs over dense rows
        of equal t-exponent (see _div_rows); for b = 0 the roles of q and
        t are swapped, since q^a - 1 = -(q'^0 - t'^a) with q' = t, t' = q.
        """
        if not self.terms:
            return QTPoly()
        # divide over Z and scale back once: Fraction sums are far dearer
        scale = _denominator_lcm(self.terms)
        terms = _scaled(self.terms, scale)
        if sum(terms.values()):
            return None
        swap = not b
        if swap:
            a, b = 0, a
            terms = {(j, i): c for (i, j), c in terms.items()}
        width = 1 + max(map(itemgetter(0), terms))
        rows = [[0] * width for _ in range(1 + max(map(itemgetter(1), terms)))]
        for (i, j), c in terms.items():
            rows[j][i] = c
        quo = _div_rows(rows, a, b)
        if quo is None:
            return None
        if swap:
            out = {(j, i): -c for j, row in enumerate(quo) for i, c in enumerate(row) if c}
        else:
            out = {(i, j): c for j, row in enumerate(quo) for i, c in enumerate(row) if c}
        if scale != 1:
            out = {e: Fraction(c, scale) for e, c in out.items()}
        return _from_terms(out)

    def subs_poly(self, vq, vt):
        """self(vq, vt) for QTPoly values: each row of equal t-exponent is
        evaluated at vq, then multiplied by vt to that exponent."""
        pow_q, pow_t = [QTPoly(1)], [QTPoly(1)]
        rows = {}
        for (eq, et), c in self.terms.items():
            rows.setdefault(et, []).append((eq, c))
        out = {}
        get = out.get
        for et, row in rows.items():
            acc = {}
            acc_get = acc.get
            for eq, c in row:
                for e, v in _power(pow_q, vq, eq).terms.items():
                    acc[e] = acc_get(e, 0) + c * v
            val = _from_terms(acc)
            if et:
                val = val * _power(pow_t, vt, et)
            for e, v in val.terms.items():
                out[e] = get(e, 0) + v
        return _from_terms(out)

    def subs(self, vq, vt):
        """Evaluate at QTScalar values vq, vt."""
        pow_q, pow_t = [QTScalar.one()], [QTScalar.one()]
        total = QTScalar.zero()
        for (eq, et), c in self.terms.items():
            term = QTScalar.from_fraction(c)
            if eq:
                term = term * _power(pow_q, vq, eq)
            if et:
                term = term * _power(pow_t, vt, et)
            total = total + term
        return total

    def _monomial_content(self):
        eq = min(e[0] for e in self.terms)
        et = min(e[1] for e in self.terms)
        return eq, et

    def _shift_down(self, eq, et):
        if not eq and not et:
            return self
        return _from_terms({(a - eq, b - et): c for (a, b), c in self.terms.items()})

    def to_json(self):
        return [[str(c), e[0], e[1]] for e, c in sorted(self.terms.items())]

    @staticmethod
    def from_json(data):
        return QTPoly({(int(eq), int(et)): Fraction(c) for c, eq, et in data})

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for (eq, et), c in sorted(self.terms.items(), key=lambda kv: _grlex_key(kv[0]), reverse=True):
            mon = "".join(
                [f"q^{eq}" if eq > 1 else "q" * (eq == 1), f"t^{et}" if et > 1 else "t" * (et == 1)]
            )
            if not mon:
                bits.append(str(c))
            elif c == 1:
                bits.append(mon)
            elif c == -1:
                bits.append("-" + mon)
            else:
                bits.append(f"{c}*{mon}")
        s = "+".join(bits).replace("+-", "-")
        return s


_ZZ_RING = None


def _zz_ring():
    """sympy's sparse ring Z[q,t], built on first use.

    Its term order only steers sympy's internal leading terms: the
    canonical form applies grlex itself (see _monic), and under sympy's
    default lex order a leading term is a plain max() over the exponents.
    """
    global _ZZ_RING
    if _ZZ_RING is None:
        from sympy import ZZ
        from sympy.polys.rings import ring

        _ZZ_RING = ring("q,t", ZZ)[0]
    return _ZZ_RING


def _to_zz(a: QTPoly, b: QTPoly):
    """a and b as elements of Z[q,t], both scaled by the lcm of their
    coefficient denominators."""
    scale = lcm(_denominator_lcm(a.terms), _denominator_lcm(b.terms))
    ring = _zz_ring()
    return ring.from_dict(_scaled(a.terms, scale)), ring.from_dict(_scaled(b.terms, scale))


def _from_zz(f):
    """A Z[q,t] element as a QTPoly with int coefficients."""
    return _from_terms({e: int(c) for e, c in f.items()})


def _monic(num: QTPoly, den: QTPoly):
    """(num, den) scaled so that den is monic under grlex."""
    _, lc = den.leading()
    if lc != 1:
        inv = Fraction(1) / lc
        num = num * inv
        den = den * inv
    return num, den


def poly_gcd(a: QTPoly, b: QTPoly) -> QTPoly:
    """Monic gcd of two QTPolys, computed in sympy's sparse ring Z[q,t]."""
    if not a:
        return b
    if not b:
        return a
    fa, fb = _to_zz(a, b)
    g = _from_zz(fa.gcd(fb))
    return g * (Fraction(1) / g.leading()[1])


class QTScalar:
    """An element of Q(q,t) in canonical reduced form.

    Invariants: den != 0, gcd(num, den) = 1, den monic under grlex
    (q before t), and zero is 0/1.
    """

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num, den=None):
        if not isinstance(num, QTPoly):
            num = QTPoly(num)
        if den is None:
            den = QTPoly(1)
        elif not isinstance(den, QTPoly):
            den = QTPoly(den)
        self.num, self.den = _normalize(num, den)
        self._hash = None

    @staticmethod
    def _raw(num, den):
        out = QTScalar.__new__(QTScalar)
        out.num, out.den = num, den
        out._hash = None
        return out

    @staticmethod
    def zero():
        return QTScalar._raw(QTPoly(), QTPoly(1))

    @staticmethod
    def one():
        return QTScalar._raw(QTPoly(1), QTPoly(1))

    @staticmethod
    def from_fraction(c):
        return QTScalar._raw(QTPoly(c), QTPoly(1))

    @staticmethod
    def qt_monomial(c, eq, et):
        """c * q^eq * t^et with possibly negative exponents."""
        num = QTPoly({(max(eq, 0), max(et, 0)): c})
        if not num:
            return QTScalar.zero()
        # coprime monomials with a monic den: already canonical
        return QTScalar._raw(num, QTPoly({(max(-eq, 0), max(-et, 0)): 1}))

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.num, self.den))
        return self._hash

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not self:
            return other
        if not other:
            return self
        if self.den == other.den:
            if _is_one(self.den):
                return QTScalar._raw(self.num + other.num, self.den)
            return QTScalar(self.num + other.num, self.den)
        # a polynomial p plus a reduced n/d is (n + p d)/d: already reduced,
        # since gcd(n + p d, d) = gcd(n, d) = 1, and d is monic
        if other.den == 1:
            return QTScalar._raw(self.num + other.num * self.den, self.den)
        if self.den == 1:
            return QTScalar._raw(other.num + self.num * other.den, other.den)
        return QTScalar._raw(*_add_reduced(self.num, self.den, other.num, other.den))

    __radd__ = __add__

    def __neg__(self):
        return QTScalar._raw(-self.num, self.den)

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return _coerce(other) - self

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not self or not other:
            return QTScalar.zero()
        if _is_one(self.den) and _is_one(other.den):
            return QTScalar._raw(self.num * other.num, self.den)
        # Cross-reduce: with both operands reduced, gcd(n1 n2, d1 d2) = 1,
        # and a product of monic polynomials is monic, so the result is
        # already canonical.
        n1, d2 = _normalize(self.num, other.den)
        n2, d1 = _normalize(other.num, self.den)
        return QTScalar._raw(n1 * n2, d1 * d2)

    __rmul__ = __mul__

    def inverse(self):
        if not self.num:
            raise ZeroDivisionError("inverse of zero QTScalar")
        # num and den are coprime already: only the new den needs scaling
        return QTScalar._raw(*_monic(self.den, self.num))

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return _coerce(other) * self.inverse()

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        result = QTScalar.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def is_polynomial(self):
        return self.den == QTPoly(1)

    def is_constant(self):
        return self.num.is_constant() and self.den == QTPoly(1)

    def as_fraction(self):
        if not self.is_constant():
            raise ValueError(f"not a constant: {self!r}")
        return self.num.const()

    def specialize(self, bind):
        """Exact substitution; bind maps 'q'/'t' to QTScalar values.

        Missing variables are left alone.  Raises PoleError if the
        denominator vanishes under the binding.
        """
        vq = bind.get("q", QT_Q)
        vt = bind.get("t", QT_T)
        if not isinstance(vq, QTScalar):
            vq = QTScalar(vq)
        if not isinstance(vt, QTScalar):
            vt = QTScalar(vt)
        if _is_one(vq.den) and _is_one(vt.den):
            den = self.den.subs_poly(vq.num, vt.num)
            if not den:
                raise PoleError(f"denominator vanishes under {bind}")
            return QTScalar(self.num.subs_poly(vq.num, vt.num), den)
        den = self.den.subs(vq, vt)
        if not den:
            raise PoleError(f"denominator vanishes under {bind}")
        return self.num.subs(vq, vt) / den

    def to_json(self):
        return {"num": self.num.to_json(), "den": self.den.to_json()}

    @staticmethod
    def from_json(data):
        return QTScalar(QTPoly.from_json(data["num"]), QTPoly.from_json(data["den"]))

    def key(self):
        """Hashable canonical content, for memo keys and digests."""
        return (
            tuple(sorted(self.num.terms.items())),
            tuple(sorted(self.den.terms.items())),
        )

    def __repr__(self):
        if self.den == QTPoly(1):
            return repr(self.num)
        return f"({self.num!r})/({self.den!r})"


def _is_one(p: QTPoly):
    terms = p.terms
    return len(terms) == 1 and terms.get((0, 0)) == 1


def _coerce(x):
    if isinstance(x, QTScalar):
        return x
    if isinstance(x, (int, Fraction)):
        return QTScalar.from_fraction(x)
    if isinstance(x, QTPoly):
        return QTScalar(x)
    return NotImplemented


def _normalize(num: QTPoly, den: QTPoly):
    """Canonical reduced (num, den): coprime, den monic under grlex."""
    if not den:
        raise ZeroDivisionError("QTScalar with zero denominator")
    if not num:
        return QTPoly(), QTPoly(1)
    if not den.is_constant():
        # cancel the common monomial factor, then any other common factor
        nq, nt = num._monomial_content()
        dq, dt = den._monomial_content()
        mq, mt = min(nq, dq), min(nt, dt)
        if mq or mt:
            num = num._shift_down(mq, mt)
            den = den._shift_down(mq, mt)
        # a one-term side shares nothing but monomial content with the other
        if len(den.terms) > 1 and len(num.terms) > 1:
            fn, fd = _to_zz(num, den)
            _, fn, fd = fn.cofactors(fd)
            num, den = _from_zz(fn), _from_zz(fd)
    return _monic(num, den)


def _add_reduced(a: QTPoly, b: QTPoly, c: QTPoly, d: QTPoly):
    """Canonical a/b + c/d for reduced a/b and c/d with b != d (Henrici).

    With s b = g B and s d = g D, where g = gcd(b, d) and s clears the
    coefficient denominators, the sum is s (a D + c B) / (g B D).  Its
    numerator is coprime to B and D, so only a factor of g can cancel,
    and no gcd of the whole numerator with the whole denominator is taken.
    When b or d is a monomial, g is the common monomial content and no
    gcd is taken at all.
    """
    if len(b.terms) == 1 or len(d.terms) == 1:
        (bq, bt), (dq, dt) = b._monomial_content(), d._monomial_content()
        gq, gt = min(bq, dq), min(bt, dt)
        big_b, big_d = b._shift_down(gq, gt), d._shift_down(gq, gt)
        num = a * big_d + c * big_b
        nq, nt = num._monomial_content()
        mq, mt = min(nq, gq), min(nt, gt)
        return _monic(num._shift_down(mq, mt), (b * big_d)._shift_down(mq, mt))
    fb, fd = _to_zz(b, d)
    g, fb, fd = fb.cofactors(fd)
    big_b, big_d = _from_zz(fb), _from_zz(fd)
    num = a * big_d + c * big_b
    if g.is_ground:
        return _monic(num, b * big_d)
    scale = lcm(_denominator_lcm(b.terms), _denominator_lcm(d.terms))
    fn, fg = _to_zz(num, _from_zz(g))
    _, fn, fg = fn.cofactors(fg)
    return _monic(_from_zz(fn) * scale, _from_zz(fg) * big_b * big_d)


# Common constants
QT_Q = QTScalar(QTPoly.monomial(1, 1, 0))
QT_T = QTScalar(QTPoly.monomial(1, 0, 1))
QT_ONE = QTScalar.one()
QT_ZERO = QTScalar.zero()
# M = (1-t)(1-q), ubiquitous in the operator calculus
M_POLY = (QTPoly(1) - QTPoly.monomial(1, 0, 1)) * (QTPoly(1) - QTPoly.monomial(1, 1, 0))
QT_M = QTScalar(M_POLY)
