"""Exact arithmetic in the field Q(q,t).

QTPoly is a sparse bivariate polynomial with arbitrary-precision rational
coefficients; QTScalar is a gcd-reduced fraction of two QTPolys with a
monic denominator (graded lexicographic order, q before t).  Every
coefficient appearing anywhere in the library is a QTScalar, including
Laurent constants like (-qt)^(-j), whose negative exponents live in the
denominator.

A QTPoly is stored as integers over one denominator: a dict from
exponents to nonzero ints and one int d > 0 coprime to all of them, a
canonical form, so ``==`` and ``hash`` read it as it stands.  Sums bring
two sides to the lcm of their denominators, products multiply the ints
over the product of the denominators, and one ``math.gcd`` pass restores
the form, only when d != 1: integer-only data never meets a Fraction.

A product of two int dicts f and g takes one path by the length of the
shorter one:
  * one term: each term of the other is shifted and scaled, with no merge
    and no zero to drop;
  * 8 terms or more: Kronecker substitution.  Each dict is packed into
    one Python int, q^i t^j in slot i K + j with K = deg_t f + deg_t g + 1,
    one big-int product is taken, and the coefficients are read back as
    symmetric slot digits.  Slots of w bits with
    2^(w-1) > min(|f|, |g|) |f|_inf |g|_inf are wide enough: a
    coefficient of the product sums at most min(|f|, |g|) products of one
    coefficient of each side, since each term of one side meets at most
    one term of the other at a given exponent;
  * otherwise the schoolbook convolution.
The test is the shorter length, not the number of term pairs: a large
polynomial times a binomial stays schoolbook, where packing the large one
costs more than it saves.
``QTPoly.terms`` is the rational view, for output and for readers outside
this module: an ``int`` where a coefficient is integral and a
``Fraction`` where it is not, so the wire format and memo keys read the
same values as a dict of Fractions would give.

Reduction of a QTScalar with two non-constant sides is one cofactor call,
_cofactors, on the two int dicts, unless the denominator is a monomial:
then only the common monomial content cancels.  _cofactors is a
heuristic gcd in Z[q,t] (Char, Geddes and Gonnet): it evaluates q at an
integer, takes the gcd of the two images, polynomials in t, by calling
itself (their images are integers, whose gcd is math.gcd), and reads the
polynomial gcd back from the digits, checked by multiplying out; it
needs no library.
Sums of reduced values are reduced the way Henrici adds fractions: a
polynomial plus a fraction needs no gcd, two fractions are reduced only
against the gcd of their denominators, and that gcd is a monomial, taken
without a cofactor call, when either denominator is one.  Sums and
products of two polynomials (denominator 1) are canonical as they stand
and skip normalization altogether, and so is a product with an int or
Fraction constant, which scales the numerator alone.

Specialization has one route.  With vq = a/b and vt = c/d, a polynomial
P(vq, vt) is P^ / (b^m d^n), P^ the sum of x a^i b^(m-i) c^j d^(n-j) over
the terms x q^i t^j, so the numerator and the denominator are substituted
as QTPolys and the quotient is reduced once; a polynomial at polynomial
values is P^ as it stands.  When a, b, c, d are one-term integer
monomials (t = 1, q = t = 1, t = 1/q, the bar q, t -> 1/q, 1/t) each term
maps to one term; at others (t = 1 + r) the substitution runs one row of
equal t-exponent at a time.
QTPoly.div_binomials divides exactly by a multiset of binomials
q^a - t^b on one dense form, row by row in the t-exponent, each factor
as long as it leaves no remainder, and reports how many times each one
divided; it takes no gcd.

All values are immutable after construction and safe to share.
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter
from fractions import Fraction
from math import gcd, isqrt, lcm
from operator import itemgetter, sub

_BIG_ENDIAN = sys.byteorder == "big"


class PoleError(ArithmeticError):
    """A specialization made a denominator vanish."""


def _grlex_key(expt):
    eq, et = expt
    return (eq + et, eq)


def _ratio(c, d):
    """The rational c/d (d > 0) as an int when integral, else as a Fraction."""
    if d == 1:
        return c
    return c // d if not c % d else Fraction(c, d)


def _poly(t, d=1):
    """QTPoly over the int dict t and d > 0, trusted to be canonical."""
    res = QTPoly.__new__(QTPoly)
    res._t = t
    res._d = d
    res._hash = None
    return res


def _reduced(t, d):
    """QTPoly t/d for an int dict t with no zero value and an int d > 0:
    one gcd pass makes d coprime to the coefficients, when d != 1."""
    if d != 1:
        if not t:
            d = 1
        else:
            g = gcd(d, *t.values())
            if g != 1:
                d //= g
                t = {e: c // g for e, c in t.items()}
    return _poly(t, d)


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


#: products whose shorter factor has at least this many terms are packed
_KRONECKER_MIN = 8
#: signed array typecodes by item size in bytes
_SLOT_CODES = {array(code).itemsize: code for code in "bhiq"}


def _slot_bias(width, slots):
    """The int whose slots of width bytes each hold 2^(8 width - 1)."""
    return int.from_bytes((1 << 8 * width - 1).to_bytes(width, "little") * slots, "little")


def _pack(t, stride, width, slots):
    """The int dict t at t = X, q = X^stride, X = 2^(8 width): the sum of
    c 2^(8 width (i stride + j)) over its terms c q^i t^j.

    Each coefficient is written into its slot in two's complement; U, the
    slots read as one unsigned int, is the sum of (c mod 2^w) 2^(w k), and
    flipping the top bit of every slot (the xor with the bias B) maps
    c mod 2^w to c + 2^(w-1), so (U xor B) - B is the signed sum.
    """
    code = _SLOT_CODES.get(width)
    if code:
        arr = array(code, [0]) * slots
        for (i, j), c in t.items():
            arr[i * stride + j] = c
        if _BIG_ENDIAN:
            arr.byteswap()
        raw = arr.tobytes()
    else:
        raw = bytearray(slots * width)
        for (i, j), c in t.items():
            k = (i * stride + j) * width
            raw[k:k + width] = c.to_bytes(width, "little", signed=True)
    bias = _slot_bias(width, slots)
    return (int.from_bytes(raw, "little") ^ bias) - bias


def _kronecker(f, g):
    """The product of the int dicts f and g by Kronecker substitution.

    With K = deg_t f + deg_t g + 1, the exponent (i, j) of the product is
    slot i K + j, one slot per exponent.  A coefficient of the product is
    a sum of at most min(|f|, |g|) products of one coefficient of each, so
    slots of w bits with 2^(w-1) > min(|f|, |g|) |f|_inf |g|_inf hold
    each one as a symmetric digit.  The two packed ints are multiplied
    once; adding the bias 2^(w-1) to every slot makes each slot
    nonnegative and below 2^w, so no slot carries into the next, and the
    xor with the bias leaves each coefficient in two's complement.
    """
    tf, tg = max(map(itemgetter(1), f)), max(map(itemgetter(1), g))
    qf, qg = max(map(itemgetter(0), f)), max(map(itemgetter(0), g))
    bound = min(len(f), len(g)) * max(map(abs, f.values())) * max(map(abs, g.values()))
    width = (bound.bit_length() + 8) // 8
    if width <= 8:
        width = 1 << (width - 1).bit_length()
    stride = tf + tg + 1
    slots = (qf + qg) * stride + tf + tg + 1
    bias = _slot_bias(width, slots)
    prod = _pack(f, stride, width, qf * stride + tf + 1) * _pack(g, stride, width, qg * stride + tg + 1)
    raw = ((prod + bias) ^ bias).to_bytes(slots * width, "little")
    code = _SLOT_CODES.get(width)
    if code:
        arr = array(code, raw)
        if _BIG_ENDIAN:
            arr.byteswap()
        return {divmod(k, stride): c for k, c in enumerate(arr) if c}
    out = {}
    for k in range(slots):
        c = int.from_bytes(raw[k * width:(k + 1) * width], "little", signed=True)
        if c:
            out[divmod(k, stride)] = c
    return out


def _power(cache, base, n):
    """base**n, extending the list cache of base**0, base**1, ..."""
    while len(cache) <= n:
        cache.append(cache[-1] * base)
    return cache[n]


class QTPoly:
    """Sparse polynomial in q, t over Q.  Exponents are nonnegative.

    Stored as _t / _d: _t maps exponents to nonzero ints, _d > 0 is an int,
    and gcd(_d, every value of _t) = 1, so the pair is canonical.
    """

    __slots__ = ("_t", "_d", "_hash")

    def __init__(self, terms=None):
        if terms is None:
            terms = {}
        elif isinstance(terms, (int, Fraction)):
            terms = {(0, 0): terms}
        clean = {}
        d = 1
        for (eq, et), c in terms.items():
            if eq < 0 or et < 0:
                raise ValueError("QTPoly exponents must be nonnegative")
            if c.__class__ is not int:
                c = Fraction(c)
                if c.denominator == 1:
                    c = c.numerator
                else:
                    d = lcm(d, c.denominator)
            if c:
                clean[(eq, et)] = c
        if d != 1:
            clean = _reduced({e: c * d if c.__class__ is int else c.numerator * (d // c.denominator)
                              for e, c in clean.items()}, d)
            clean, d = clean._t, clean._d
        self._t, self._d, self._hash = clean, d, None

    @property
    def terms(self):
        """The coefficients as a read-only dict exponent -> int or Fraction:
        an int wherever the coefficient is integral.  With denominator 1
        this is the stored dict itself, which must not be mutated."""
        d = self._d
        if d == 1:
            return self._t
        return {e: _ratio(c, d) for e, c in self._t.items()}

    @staticmethod
    def monomial(c, eq, et):
        return QTPoly({(eq, et): c})

    def __bool__(self):
        return bool(self._t)

    def __eq__(self, other):
        if other.__class__ is not QTPoly:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = QTPoly(other)
        return self._d == other._d and self._t == other._t

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self.terms.items()))
        return self._hash

    def __add__(self, other):
        if other.__class__ is not QTPoly:
            other = QTPoly(other)
        d1, d2 = self._d, other._d
        if d1 == d2:
            out = dict(self._t)
            get = out.get
            for e, c in other._t.items():
                out[e] = get(e, 0) + c
        else:
            d = lcm(d1, d2)
            s1, s2 = d // d1, d // d2
            out = {e: c * s1 for e, c in self._t.items()}
            get = out.get
            for e, c in other._t.items():
                out[e] = get(e, 0) + c * s2
            d1 = d
        return _reduced({e: c for e, c in out.items() if c}, d1)

    def __neg__(self):
        return _poly({e: -c for e, c in self._t.items()}, self._d)

    def __sub__(self, other):
        if other.__class__ is not QTPoly:
            other = QTPoly(other)
        return self + (-other)

    def _times(self, n, m=1):
        """self * n / m for ints n != 0, m > 0."""
        return _reduced({e: c * n for e, c in self._t.items()}, self._d * m)

    def __mul__(self, other):
        if other.__class__ is not QTPoly:
            if other.__class__ is not int:
                other = Fraction(other)
                if not other:
                    return QTPoly()
                return self._times(other.numerator, other.denominator)
            return self._times(other) if other else QTPoly()
        small, large = (self, other) if len(self._t) <= len(other._t) else (other, self)
        t1, t2 = small._t, large._t
        if len(t1) >= _KRONECKER_MIN:
            out = _kronecker(t1, t2)
        elif len(t1) == 1:
            # a one-term factor shifts and scales: no merge, no zero
            ((a1, b1), c1), = t1.items()
            if c1 == 1 == small._d and not a1 and not b1:
                return large
            out = {(a + a1, b + b1): c * c1 for (a, b), c in t2.items()}
        else:
            out = {}
            get = out.get
            t2 = t2.items()
            for (a1, b1), c1 in t1.items():
                for (a2, b2), c2 in t2:
                    e = (a1 + a2, b1 + b2)
                    out[e] = get(e, 0) + c1 * c2
            out = {e: c for e, c in out.items() if c}
        return _reduced(out, self._d * other._d)

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
        e = max(self._t, key=_grlex_key)
        return e, _ratio(self._t[e], self._d)

    def is_constant(self):
        t = self._t
        return not t or (len(t) == 1 and (0, 0) in t)

    def const(self):
        return _ratio(self._t.get((0, 0), 0), self._d)

    def div_binomials(self, factors):
        """(quotient, divided): self divided by q^a - t^b up to k times for
        each (a, b) -> k of the mapping factors, in its order, each factor
        as long as the division is exact; divided is the Counter of the
        factors that divided.  a, b >= 0, not both 0.

        All the divisions run on one dense form: rows of equal t-exponent,
        each a list over the q-exponents (see _div_rows).  For b = 0 the
        rows are transposed, so that they run over the t-exponents, since
        q^a - 1 = -(q'^0 - t'^a) with q' = t, t' = q.  q^a - t^b vanishes
        at q = t = 1, so a nonzero coefficient sum is a remainder at once.
        Each quotient keeps the denominator: q^a - t^b has content 1, so by
        Gauss's lemma it has the content of self.
        """
        divided = Counter()
        terms = self._t
        if not terms:
            divided.update(factors)
            return self, divided
        total = sum(terms.values())
        if total:
            return self, divided
        width = 1 + max(map(itemgetter(0), terms))
        rows = [[0] * width for _ in range(1 + max(map(itemgetter(1), terms)))]
        for (i, j), c in terms.items():
            rows[j][i] = c
        swapped, sign = False, 1
        for (a, b), k in factors.items():
            for _ in range(k):
                if total:
                    break
                if swapped != (not b):
                    rows, swapped = [list(col) for col in zip(*rows)], not swapped
                quo = _div_rows(rows, 0, a) if swapped else _div_rows(rows, a, b)
                if quo is None:
                    break
                rows, total = quo, sum(map(sum, quo))
                divided[a, b] += 1
                if swapped:
                    sign = -sign
        if not divided:
            return self, divided
        if swapped:
            out = {(i, j): sign * c for i, row in enumerate(rows) for j, c in enumerate(row) if c}
        else:
            out = {(i, j): sign * c for j, row in enumerate(rows) for i, c in enumerate(row) if c}
        return _poly(out, self._d), divided

    def subs_poly(self, vq, vt):
        """(P, m, n) with self(vq, vt) = P / (b^m d^n), for QTScalar values
        vq = a/b and vt = c/d: P is the sum of x a^i b^(m-i) c^j d^(n-j)
        over the terms x q^i t^j, m the largest i (0 when b = 1) and n the
        largest j (0 when d = 1).

        When a, b, c, d are one-term integer monomials (t = 1, q = t = 1,
        q itself, t = 1/q, the bar q, t -> 1/q, 1/t), each term maps to one
        term.
        Otherwise each row of equal t-exponent j is summed over the common
        denominator of its a^i b^(m-i), then multiplied by c^j d^(n-j).
        """
        a, b, c, d = vq.num, vq.den, vt.num, vt.den
        t = self._t
        m = max(map(itemgetter(0), t)) if t and not _is_one(b) else 0
        n = max(map(itemgetter(1), t)) if t and not _is_one(d) else 0
        if len(a._t) == 1 == len(c._t) == len(b._t) == len(d._t) and a._d == 1 == c._d:
            # b and d are monic: their one term has coefficient 1
            ((aq, at), ca), = a._t.items()
            ((cq, ct), cc), = c._t.items()
            (bq, bt), = b._t
            (dq, dt), = d._t
            base_q, base_t = m * bq + n * dq, m * bt + n * dt
            aq, at, cq, ct = aq - bq, at - bt, cq - dq, ct - dt
            acc = {}
            get = acc.get
            for (i, j), x in t.items():
                e = (base_q + i * aq + j * cq, base_t + i * at + j * ct)
                acc[e] = get(e, 0) + x * ca ** i * cc ** j
            return _reduced({e: x for e, x in acc.items() if x}, self._d), m, n
        pow_a, pow_b, pow_c, pow_d = [QTPoly(1)], [QTPoly(1)], [QTPoly(1)], [QTPoly(1)]
        rows = {}
        for (i, j), x in t.items():
            p = _power(pow_a, a, i)
            rows.setdefault(j, []).append((p * _power(pow_b, b, m - i) if m else p, x))
        out = QTPoly()
        for j, row in rows.items():
            den = lcm(*[p._d for p, _ in row])
            acc = {}
            get = acc.get
            for p, x in row:
                x *= den // p._d
                for e, v in p._t.items():
                    acc[e] = get(e, 0) + x * v
            val = _reduced({e: x for e, x in acc.items() if x}, den)
            if j:
                val = val * _power(pow_c, c, j)
            if n:
                val = val * _power(pow_d, d, n - j)
            out = out + val
        return (out if self._d == 1 else _reduced(out._t, out._d * self._d)), m, n

    def _monomial_content(self):
        eq = min(e[0] for e in self._t)
        et = min(e[1] for e in self._t)
        return eq, et

    def _shift_down(self, eq, et):
        if not eq and not et:
            return self
        return _poly({(a - eq, b - et): c for (a, b), c in self._t.items()}, self._d)

    def to_json(self):
        return [[str(c), e[0], e[1]] for e, c in sorted(self.terms.items())]

    @staticmethod
    def from_json(data):
        return QTPoly({(int(eq), int(et)): Fraction(c) for c, eq, et in data})

    def __repr__(self):
        if not self._t:
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


def _points(start):
    """Evaluation points for the heuristic gcd: start, then ever larger
    (the growth Char, Geddes and Gonnet suggest)."""
    xi = start
    while True:
        yield xi
        xi = 73794 * xi * isqrt(isqrt(xi)) // 27011


def _digits(v, xi):
    """The symmetric xi-adic digits of the int v, lowest first: each in
    (-xi/2, xi/2], the last one nonzero.  xi >= 3."""
    out = []
    half = xi // 2
    while v:
        v, d = divmod(v, xi)
        if d > half:
            d -= xi
            v += 1
        out.append(d)
    return out


def _cofactors(f, g):
    """(h, cf, cg) with f = h cf and g = h cg exactly, h a gcd in Z[q,t]
    of the nonzero int dicts f and g (exponents -> nonzero ints); the
    sign of h is not fixed.

    A heuristic gcd (Char, Geddes and Gonnet, J. Symbolic Comput. 7,
    1989).  The integer and the monomial contents are split off first.
    Then q is evaluated at an integer xi, and the two images, int dicts in
    one variable (_at_q), take their gcd H and cofactors by this same
    function.  Each coefficient of H is read back as a polynomial in q
    from its symmetric xi-adic digits; h is the primitive part of the
    result, and the cofactors are read back the same way.  The result is
    accepted when h cf == f and h cg == g.
    At xi >= 2 min(|f|, |g|) + 2 (max-norms) h is then the gcd: another
    common factor k would have |k(xi, t)| > xi/2, by the bound on the
    roots of f and g, yet divide the integer content taken off h, which
    is at most xi/2.  Points below that bound are skipped; the first one
    tried is 2 max(|f|, |g|) + 2, which spares most retries for a
    cofactor of the larger side, and no image vanishes there.

    Otherwise xi grows and the step repeats, without limit.  It ends: let
    f = G F1 and g = G G1 with G the gcd.  H is G(xi, t) times a stray
    factor, the gcd of F1(xi, t) and G1(xi, t).  Once xi is not a root of
    the resultant Res_t(F1, G1), which is not zero, the stray factor is
    an integer, and it divides a fixed integer combination of the
    coefficients of F1 and G1, which share no factor.  So it is bounded,
    and once xi passes twice that bound times the largest coefficient of
    G, F1 and G1, every digit read back is exact and the check holds.  In
    one variable the stray factor is the integer gcd(F1(xi), G1(xi)),
    which divides the resultant Res(F1, G1), a fixed nonzero integer, at
    every point.

    The images of the recursive call are in one variable, and the image
    of a one-variable dict is a constant, whose gcd the content split
    alone gives: the recursion is two levels deep.
    """
    cf, cg = gcd(*f.values()), gcd(*g.values())
    fq, ft = min(map(itemgetter(0), f)), min(map(itemgetter(1), f))
    gq, gt = min(map(itemgetter(0), g)), min(map(itemgetter(1), g))
    if cf != 1 or fq or ft:
        f = {(a - fq, b - ft): v // cf for (a, b), v in f.items()}
    if cg != 1 or gq or gt:
        g = {(a - gq, b - gt): v // cg for (a, b), v in g.items()}
    h = {(0, 0): 1}
    if len(f) > 1 and len(g) > 1:
        nf, ng = max(map(abs, f.values())), max(map(abs, g.values()))
        least = 2 * min(nf, ng) + 2
        for xi in _points(2 * max(nf, ng) + 2):
            fx, gx = _at_q(f, xi), _at_q(g, xi)
            if xi < least or not fx or not gx:
                continue
            hx, fx, gx = _cofactors(fx, gx)
            h = _from_digits(hx, xi)
            content = gcd(*h.values())
            h = {e: v // content for e, v in h.items()}
            if h == {(0, 0): 1}:
                break
            f1 = _from_digits({e: content * v for e, v in fx.items()}, xi)
            g1 = _from_digits({e: content * v for e, v in gx.items()}, xi)
            ph = _poly(h)
            if (ph * _poly(f1))._t == f and (ph * _poly(g1))._t == g:
                f, g = f1, g1
                break
    c = gcd(cf, cg)
    mq, mt = min(fq, gq), min(ft, gt)
    return ({(a + mq, b + mt): c * v for (a, b), v in h.items()},
            {(a + fq - mq, b + ft - mt): cf // c * v for (a, b), v in f.items()},
            {(a + gq - mq, b + gt - mt): cg // c * v for (a, b), v in g.items()})


def _at_q(f, xi):
    """The int dict f at q = xi, with each t^j moved to q^j: an int dict in
    q alone, lowest power first."""
    powers = [1]
    for _ in range(max(map(itemgetter(0), f))):
        powers.append(powers[-1] * xi)
    out = [0] * (1 + max(map(itemgetter(1), f)))
    for (a, b), v in f.items():
        out[b] += v * powers[a]
    return {(j, 0): v for j, v in enumerate(out) if v}


def _from_digits(image, xi):
    """The int dict whose row of t-exponent j has the symmetric xi-adic
    digits of image[(j, 0)] as its coefficients, lowest power of q first."""
    return {(i, j): d for (j, _), v in image.items() for i, d in enumerate(_digits(v, xi)) if d}


def _monic(num: QTPoly, den: QTPoly):
    """(num, den) scaled so that den is monic under grlex: both are
    multiplied by d / c, where c / d is the leading coefficient of den."""
    t = den._t
    c, d = t[max(t, key=_grlex_key)], den._d
    if c != d:
        if c < 0:
            c, d = -c, -d
        num = num._times(d, c)
        den = _reduced(t if d > 0 else {e: -v for e, v in t.items()}, c)
    return num, den


def poly_gcd(a: QTPoly, b: QTPoly) -> QTPoly:
    """Monic gcd of two QTPolys: the gcd of their int numerators."""
    if not a:
        return b
    if not b:
        return a
    g = _poly(_cofactors(a._t, b._t)[0])
    return g * (Fraction(1) / g.leading()[1])


def _cancel(a: QTPoly, b: QTPoly):
    """(A, B) with A / B = a / b, the gcd of the two numerators cancelled."""
    _, fa, fb = _cofactors(a._t, b._t)
    return _reduced(fa, a._d), _reduced(fb, b._d)


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
        return QTScalar._raw(_poly({}), _poly({(0, 0): 1}))

    @staticmethod
    def one():
        return QTScalar._raw(_poly({(0, 0): 1}), _poly({(0, 0): 1}))

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
        if _is_one(other.den):
            return QTScalar._raw(self.num + other.num * self.den, self.den)
        if _is_one(self.den):
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
        if other.__class__ is int or other.__class__ is Fraction:
            # a nonzero constant leaves num/den reduced and den monic
            if not self or not other:
                return QTScalar.zero()
            return QTScalar._raw(self.num * other, self.den)
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
        return _is_one(self.den)

    def is_constant(self):
        return self.num.is_constant() and _is_one(self.den)

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
        num, m1, n1 = self.num.subs_poly(vq, vt)
        if _is_one(self.den) and _is_one(vq.den) and _is_one(vt.den):
            # a polynomial at polynomial values
            return QTScalar._raw(num, self.den)
        den, m2, n2 = self.den.subs_poly(vq, vt)
        if not den:
            raise PoleError(f"denominator vanishes under {bind}")
        # self(vq, vt) = num b^m2 d^n2 / (den b^m1 d^n1), vq = a/b, vt = c/d
        m, n = m2 - m1, n2 - n1
        if m or n:
            b, d = vq.den, vt.den
            num = num * b ** max(m, 0) * d ** max(n, 0)
            den = den * b ** max(-m, 0) * d ** max(-n, 0)
        return QTScalar(num, den)

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
        if _is_one(self.den):
            return repr(self.num)
        return f"({self.num!r})/({self.den!r})"


def _is_one(p: QTPoly):
    t = p._t
    return len(t) == 1 and p._d == 1 and t.get((0, 0)) == 1


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
        if len(den._t) > 1 and len(num._t) > 1:
            num, den = _cancel(num, den)
    return _monic(num, den)


def _add_reduced(a: QTPoly, b: QTPoly, c: QTPoly, d: QTPoly):
    """Canonical a/b + c/d for reduced a/b and c/d with b != d (Henrici).

    With b = g B and d = g D, where g is the gcd of the int numerators of
    b and d, the sum is (a D + c B) / (g B D).  Its numerator is coprime
    to B and D, so only a factor of g can cancel, and no gcd of the whole
    numerator with the whole denominator is taken.
    When b or d is a monomial, g is the common monomial content and no
    gcd is taken at all.
    """
    if len(b._t) == 1 or len(d._t) == 1:
        (bq, bt), (dq, dt) = b._monomial_content(), d._monomial_content()
        gq, gt = min(bq, dq), min(bt, dt)
        big_b, big_d = b._shift_down(gq, gt), d._shift_down(gq, gt)
        num = a * big_d + c * big_b
        nq, nt = num._monomial_content()
        mq, mt = min(nq, gq), min(nt, gt)
        return _monic(num._shift_down(mq, mt), (b * big_d)._shift_down(mq, mt))
    g, fb, fd = _cofactors(b._t, d._t)
    big_b, big_d = _reduced(fb, b._d), _reduced(fd, d._d)
    num = a * big_d + c * big_b
    if len(g) == 1 and (0, 0) in g:
        return _monic(num, b * big_d)
    num, g = _cancel(num, _poly(g))
    return _monic(num, g * big_b * big_d)


# Common constants
QT_Q = QTScalar(QTPoly.monomial(1, 1, 0))
QT_T = QTScalar(QTPoly.monomial(1, 0, 1))
QT_ONE = QTScalar.one()
QT_ZERO = QTScalar.zero()
# M = (1-t)(1-q), ubiquitous in the operator calculus
M_POLY = (QTPoly(1) - QTPoly.monomial(1, 0, 1)) * (QTPoly(1) - QTPoly.monomial(1, 1, 0))
QT_M = QTScalar(M_POLY)
