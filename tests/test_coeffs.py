"""Field arithmetic in Q(q,t): axioms, canonical form, serialization."""

from fractions import Fraction
from math import gcd

import os
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ehall import coeffs as kernel
from ehall.coeffs import (
    M_POLY,
    QT_M,
    QT_ONE,
    QT_Q,
    QT_T,
    QT_ZERO,
    PoleError,
    QTPoly,
    QTScalar,
    poly_gcd,
)


def qt(num, den=1):
    """Convenience constructor: qt(poly-dict/int, poly-dict/int)."""
    return QTScalar(num if isinstance(num, QTPoly) else QTPoly(num),
                    den if isinstance(den, QTPoly) else QTPoly(den))


def _div(p, a, b):
    """p / (q^a - t^b), or None when the division leaves a remainder."""
    quo, divided = p.div_binomials({(a, b): 1})
    return quo if divided else None


# small random rational functions: numerator and denominator from a pool of
# sparse polynomials in q, t with integer or rational coefficients
rationals = st.fractions(min_value=-4, max_value=4, max_denominator=6)
coeffs = st.one_of(st.integers(min_value=-4, max_value=4), rationals)
exponents = st.integers(min_value=0, max_value=3)
polys = st.dictionaries(st.tuples(exponents, exponents), coeffs, max_size=4).map(QTPoly)
nonzero_polys = polys.filter(bool)
scalars = st.builds(QTScalar, polys, nonzero_polys)
nonzero_scalars = scalars.filter(bool)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(scalars, scalars, scalars)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + QT_ZERO == a
    assert a * QT_ONE == a
    assert a - a == QT_ZERO


@settings(max_examples=60, deadline=None, derandomize=True)
@given(nonzero_scalars)
def test_multiplicative_inverse(a):
    assert a * a.inverse() == QT_ONE
    assert a**3 * a**-3 == QT_ONE


@settings(max_examples=60, deadline=None, derandomize=True)
@given(scalars)
def test_canonical_form(a):
    # denominator is monic under grlex, and num/den share no factor
    _, lead = a.den.leading()
    assert lead == 1
    g = poly_gcd(a.num, a.den)
    assert g.is_constant()
    if not a.num:
        assert a.den == QTPoly(1)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(scalars)
def test_json_and_key_round_trip(a):
    assert QTScalar.from_json(a.to_json()) == a
    b = QTScalar(a.num * QTPoly(3), a.den * QTPoly(3))
    assert a.key() == b.key() and a == b


@settings(max_examples=40, deadline=None, derandomize=True)
@given(scalars)
def test_specialize_is_a_homomorphism(a):
    bind = {"q": QTScalar(2), "t": QTScalar(Fraction(1, 3))}
    try:
        va = a.specialize(bind)
    except PoleError:
        return
    b = QT_Q + QT_T
    vb = b.specialize(bind)
    assert (a * b).specialize(bind) == va * vb
    assert (a + b).specialize(bind) == va + vb


def test_specialize_pole_detection():
    f = QT_ONE / (QT_ONE - QT_T)
    with pytest.raises(PoleError):
        f.specialize({"t": QT_ONE})
    # after cancellation there is no pole
    g = f * (QT_ONE - QT_T * QT_T)
    assert g.specialize({"t": QT_ONE}) == QTScalar(2)


def test_monomial_and_m():
    assert QTScalar.qt_monomial(1, 1, 1) == QT_Q * QT_T
    assert QTScalar.qt_monomial(1, -1, 0) * QT_Q == QT_ONE
    assert QT_M == (QT_ONE - QT_T) * (QT_ONE - QT_Q)
    assert QTScalar(M_POLY) == QT_M


def test_as_fraction_and_predicates():
    assert qt(3, 4).as_fraction() == Fraction(3, 4)
    assert QT_Q.is_polynomial() and not QT_Q.is_constant()
    assert (QT_ONE / QT_Q).is_polynomial() is False
    with pytest.raises(ValueError):
        QT_Q.as_fraction()


def test_repr_stable():
    assert repr(QT_Q + QT_T) == "q+t"
    assert repr((QT_ONE / (QT_Q * QT_T))) in ("(1)/(qt)", "1/(qt)")


def _assert_stored_canonical(p):
    """The stored ints are nonzero and coprime to the denominator, and the
    terms view gives an int for every integral coefficient."""
    assert p._d > 0 and all(type(c) is int and c for c in p._t.values())
    assert gcd(p._d, *p._t.values()) == 1
    for e, c in p.terms.items():
        assert c == Fraction(p._t[e], p._d)
        assert (type(c) is int) == (p._t[e] % p._d == 0), (e, c)


def test_equal_values_by_different_routes_are_identical():
    e = (2, 1)
    # (1/2) q^2 t
    halves = [
        QTPoly({e: Fraction(2, 4)}),
        QTPoly({e: 3}) * Fraction(1, 6),
        QTPoly({e: Fraction(1, 3)}) + QTPoly({e: Fraction(1, 6)}),
        Fraction(1, 2) * QTPoly({e: 1, (0, 0): 1}) - QTPoly(Fraction(1, 2)),
        QTPoly({e: 1}) * QTPoly(Fraction(1, 2)),
    ]
    # q^2 t + 2q, twice as a sum whose denominators cancel to 1
    integral = [
        QTPoly({e: 1, (1, 0): 2}),
        QTPoly({e: Fraction(1, 3), (1, 0): Fraction(1, 2)})
        + QTPoly({e: Fraction(2, 3), (1, 0): Fraction(3, 2)}),
        QTPoly({e: Fraction(5, 6), (1, 0): 2, (0, 0): Fraction(1, 4)})
        - QTPoly({e: Fraction(-1, 6), (0, 0): Fraction(1, 4)}),
        _div(QTPoly({e: 1, (1, 0): 2}) * QTPoly({(1, 0): 1, (0, 1): -1}), 1, 1),
    ]
    for group in (halves, integral):
        for p in group:
            _assert_stored_canonical(p)
            assert p == group[0] and hash(p) == hash(group[0])
            assert p.to_json() == group[0].to_json()
            x, y = QTScalar(p, QT_Q.num + 1), QTScalar(group[0], QT_Q.num + 1)
            assert x == y and hash(x) == hash(y)
            assert x.to_json() == y.to_json() and x.key() == y.key()
    assert halves[0].terms == {e: Fraction(1, 2)} and integral[1]._d == 1
    assert type(integral[1].terms[e]) is int
    # the same at the QTScalar level, a constant operand among the routes
    scalars = [QTScalar(Fraction(2, 4)), qt(1, 2), QTScalar(3) * Fraction(1, 6),
               Fraction(1, 6) * QTScalar(3), qt(1, 3) + qt(1, 6), QT_ONE / 2]
    for x in scalars:
        _assert_stored_canonical(x.num)
        _assert_stored_canonical(x.den)
        assert x == scalars[0] and hash(x) == hash(scalars[0])
        assert x.to_json() == scalars[0].to_json() and x.key() == scalars[0].key()
    assert scalars[0].to_json() == {"num": [["1/2", 0, 0]], "den": [["1", 0, 0]]}


# -- reference normalization ----------------------------------------------
# The reduction used before the integer kernel, kept as an oracle: it works
# on plain {(eq, et): Fraction} dicts, tries trial division both ways, and
# otherwise divides by the monic gcd over QQ.  Its canonical form (coprime,
# denominator monic under grlex) is unique, so the kernel must reproduce it
# exactly.


def _ref_lead(p):
    e = max(p, key=lambda e: (e[0] + e[1], e[0]))
    return e, p[e]


def _ref_scale(p, c):
    return {e: v * c for e, v in p.items()}


def _ref_mul(p, r):
    out = {}
    for (a1, b1), c1 in p.items():
        for (a2, b2), c2 in r.items():
            e = (a1 + a2, b1 + b2)
            out[e] = out.get(e, 0) + Fraction(c1) * c2
    return out


def _ref_add(p, r):
    out = {e: Fraction(c) for e, c in p.items()}
    for e, c in r.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def _ref_divmod(p, d):
    (dq, dt), dc = _ref_lead(d)
    quo, rem, cur = {}, {}, dict(p)
    while cur:
        e, c = _ref_lead(cur)
        del cur[e]
        if e[0] >= dq and e[1] >= dt:
            fe = (e[0] - dq, e[1] - dt)
            fc = c / dc
            quo[fe] = quo.get(fe, 0) + fc
            for (a, b), cc in d.items():
                if (a, b) == (dq, dt):
                    continue
                ee = (fe[0] + a, fe[1] + b)
                s = cur.get(ee, 0) - fc * cc
                if s:
                    cur[ee] = s
                else:
                    cur.pop(ee, None)
        else:
            rem[e] = c
    return quo, rem


def _ref_gcd(a, b):
    from sympy import QQ
    from sympy.polys.orderings import grlex
    from sympy.polys.rings import ring

    R = ring("q,t", QQ, order=grlex)[0]
    fa = R.from_dict({e: QQ(c.numerator, c.denominator) for e, c in a.items()})
    fb = R.from_dict({e: QQ(c.numerator, c.denominator) for e, c in b.items()})
    return {e: Fraction(int(c.numerator), int(c.denominator)) for e, c in fa.gcd(fb).items()}


def _ref_is_constant(p):
    return set(p) <= {(0, 0)}


def ref_normalize(num, den):
    num = {e: Fraction(c) for e, c in num.items() if c}
    den = {e: Fraction(c) for e, c in den.items() if c}
    one = {(0, 0): Fraction(1)}
    if not num:
        return {}, one
    mq = min(e[0] for e in list(num) + list(den))
    mt = min(e[1] for e in list(num) + list(den))
    num = {(a - mq, b - mt): c for (a, b), c in num.items()}
    den = {(a - mq, b - mt): c for (a, b), c in den.items()}
    if _ref_is_constant(den):
        return _ref_scale(num, 1 / den[(0, 0)]), one
    if not _ref_is_constant(num):
        quo, rem = _ref_divmod(num, den)
        if not rem:
            return ref_normalize(quo, one)
        quo, rem = _ref_divmod(den, num)
        if not rem:
            return ref_normalize(one, quo)
        g = _ref_gcd(num, den)
        if max(a + b for a, b in g) > 0:
            num = _ref_divmod(num, g)[0]
            den = _ref_divmod(den, g)[0]
            if _ref_is_constant(den):
                return ref_normalize(num, den)
    _, lc = _ref_lead(den)
    return _ref_scale(num, 1 / lc), _ref_scale(den, 1 / lc)


def _ref_json(p):
    return [[str(c), e[0], e[1]] for e, c in sorted(p.items())]


def _assert_int_or_proper_fraction(p):
    for c in p.terms.values():
        assert type(c) in (int, Fraction), c
        assert not (type(c) is Fraction and c.denominator == 1), c


def _assert_matches_reference(x, num, den):
    rnum, rden = ref_normalize(num, den)
    assert x.to_json() == {"num": _ref_json(rnum), "den": _ref_json(rden)}
    assert x.key() == (tuple(sorted(rnum.items())), tuple(sorted(rden.items())))
    _assert_int_or_proper_fraction(x.num)
    _assert_int_or_proper_fraction(x.den)


# c q^i t^j with a rational c: the denominators of Laurent values
monomials = st.builds(lambda c, e: QTPoly({e: c}), rationals.filter(bool),
                      st.tuples(exponents, exponents))


def _assert_sum_matches_reference(x, z):
    num = _ref_add(_ref_mul(x.num.terms, z.den.terms), _ref_mul(z.num.terms, x.den.terms))
    _assert_matches_reference(x + z, num, _ref_mul(x.den.terms, z.den.terms))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(polys, polys.filter(bool), polys.filter(bool), monomials, monomials)
@example(QTPoly({(1, 0): 1}), QTPoly(3), QTPoly({(0, 1): 3, (0, 0): 1}),  # q/3: no float 1/3
         QTPoly({(1, 1): 1}), QTPoly({(1, 2): 1}))
def test_normalization_matches_reference(a, b, g, m1, m2):
    # a/b, and quotients with a planted common factor g
    ag, bg = _ref_mul(a.terms, g.terms), _ref_mul(b.terms, g.terms)
    cases = [(a.terms, b.terms), (ag, bg), (g.terms, bg), (ag, g.terms)]
    for num, den in cases:
        x = QTScalar(QTPoly(num), QTPoly(den))
        _assert_matches_reference(x, num, den)
        # products, inverses and sums skip the full reduction
        z = QTScalar(b, g)
        _assert_matches_reference(x * z, _ref_mul(x.num.terms, z.num.terms),
                                  _ref_mul(x.den.terms, z.den.terms))
        if x:
            _assert_matches_reference(x.inverse(), x.den.terms, x.num.terms)
        # a polynomial plus a fraction, in both orders, and two fractions
        sum_num = _ref_add(x.num.terms, _ref_mul(g.terms, x.den.terms))
        _assert_matches_reference(x + QTScalar(g), sum_num, x.den.terms)
        _assert_matches_reference(QTScalar(g) + x, sum_num, x.den.terms)
        _assert_sum_matches_reference(x, z)
    # Laurent values: monomial denominators, equal or different, with each
    # other and with a general fraction, in both orders
    pairs = [(a, m1), (b, m1), (g, m2), (b, m1 * m2)]
    laurent = [QTScalar(num, mono) for num, mono in pairs]
    for x, (num, mono) in zip(laurent, pairs):
        _assert_matches_reference(x, num.terms, mono.terms)
    for x in laurent + [QTScalar(b, g)]:
        for z in laurent:
            _assert_sum_matches_reference(x, z)
            _assert_sum_matches_reference(z, x)


def test_sum_cancels_a_factor_of_the_common_denominator():
    # 1/(1+q) + (q-t)/((1+q)(1+t)) = 1/(1+t): the numerator of the sum
    # shares the factor 1+q of gcd(b, d)
    one_plus_q = QTPoly({(0, 0): 1, (1, 0): 1})
    one_plus_t = QTPoly({(0, 0): 1, (0, 1): 1})
    x = QTScalar(QTPoly(1), one_plus_q)
    z = QTScalar(QTPoly({(1, 0): 1, (0, 1): -1}), one_plus_q * one_plus_t)
    num = _ref_add(_ref_mul(x.num.terms, z.den.terms), _ref_mul(z.num.terms, x.den.terms))
    _assert_matches_reference(x + z, num, _ref_mul(x.den.terms, z.den.terms))
    assert x + z == QTScalar(QTPoly(1), one_plus_t)


def test_laurent_sum_cancels_monomial_content():
    # 1/(qt) + (q-t)/(q t^2) = (t + q - t)/(q t^2) = 1/t^2: the numerator of
    # the sum shares q with the common denominator
    x = QTScalar(QTPoly(1), QTPoly({(1, 1): 1}))
    z = QTScalar(QTPoly({(1, 0): 1, (0, 1): -1}), QTPoly({(1, 2): 1}))
    _assert_sum_matches_reference(x, z)
    assert x + z == QTScalar(QTPoly(1), QTPoly({(0, 2): 1}))


# -- the product kernel: one-term, schoolbook and packed products -----------
# _ref_mul, the schoolbook convolution over Fractions, is the oracle.

wide_coeffs = st.one_of(st.integers(-4, 4), st.integers(-2**20, 2**20),
                        st.integers(2**64, 2**70), st.integers(-2**70, -2**64)).filter(bool)
wide_exponents = st.tuples(st.integers(0, 30), st.integers(0, 6))


@st.composite
def sized_polys(draw):
    """1, 7, 8 or 9 terms with q-exponents up to 30, coefficients of every
    slot width and above 2^64 of both signs, over a denominator."""
    n = draw(st.sampled_from([1, 7, 8, 9]))
    ints = draw(st.dictionaries(wide_exponents, wide_coeffs, min_size=n, max_size=n))
    d = draw(st.sampled_from([1, 1, 2, 6, 35]))
    return QTPoly({e: Fraction(c, d) for e, c in ints.items()})


def _schoolbook(f, g):
    return {e: c for e, c in _ref_mul(f.terms, g.terms).items() if c}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(sized_polys(), sized_polys())
def test_products_match_schoolbook(f, g):
    want = _schoolbook(f, g)
    for prod in (f * g, g * f):
        assert prod.terms == want
        _assert_stored_canonical(prod)
    # sums of products that cancel to zero
    assert f * g - g * f == QTPoly() and not (f * g + f * (-g))._t


def test_products_take_the_packed_path_from_8_terms(monkeypatch):
    packed, calls = kernel._kronecker, []

    def record(f, g):
        calls.append((len(f), len(g)))
        return packed(f, g)

    monkeypatch.setattr(kernel, "_kronecker", record)

    def poly(n):
        return QTPoly({(i, i % 3): (-1) ** i * (i + 1) for i in range(n)})

    for n1, n2 in [(7, 9), (9, 7), (8, 8), (8, 30), (30, 9), (1, 30), (30, 1), (2, 30)]:
        f, g = poly(n1), poly(n2)
        assert (f * g).terms == _schoolbook(f, g)
    assert calls == [(8, 8), (8, 30), (9, 30)]


def test_product_by_one_is_the_other_factor():
    f = QTPoly({(1, 2): Fraction(1, 3), (0, 0): 2})
    assert QTPoly(1) * f is f and f * QTPoly(1) is f
    # other one-term factors, 1 shifted or over a denominator among them
    for m in (QTPoly(-1), QTPoly(Fraction(1, 2)), QTPoly({(1, 0): 1}), QTPoly({(0, 1): 1})):
        for prod in (m * f, f * m):
            assert prod.terms == _schoolbook(m, f)
            _assert_stored_canonical(prod)


def test_packed_products_cancel_inside():
    # (1 + q + ... + q^9)(1 - q)(1 + t + ... + t^7) = (1 - q^10)(1 + ... + t^7):
    # every coefficient but those of q^0 and q^10 cancels
    f = QTPoly({(i, 0): 1 for i in range(10)})
    g = QTPoly({(i, j): 1 - 2 * i for i in (0, 1) for j in range(8)})
    assert (f * g).terms == {(i, j): 1 - i // 5 for i in (0, 10) for j in range(8)}
    # (q - t)(sum of 8 terms) times (q + t)(sum of 9 terms), with a denominator
    h = QTPoly({(i, 7 - i): Fraction(1, 3) for i in range(8)}) * QTPoly({(1, 0): 1, (0, 1): -1})
    k = QTPoly({(2 * i, i): Fraction(i - 4, 2) or 1 for i in range(9)}) * QTPoly({(1, 0): 1, (0, 1): 1})
    assert (h * k).terms == _schoolbook(h, k) and (h * k)._d == 6


@pytest.mark.parametrize("c1, c2", [
    (3, 5), (-3, 5), (4, 4), (-4, 4),              # 1 byte: |120| < 2^7 <= 128
    (2**14, 2**14 - 1), (-2**14, 2**14 - 1),       # 4 bytes, near 2^31
    (2**30, 2**30 - 1), (-2**30, 2**30 - 1),       # 8 bytes, near 2^63
    (2**30, 2**30), (2**70, -2**70),               # wider than 8 bytes
])
def test_packed_slots_hold_the_bound(c1, c2):
    # in (c1 sum q^i)(c2 sum q^i) over i < 8 the coefficient of q^7 sums 8
    # products: it is the slot-width bound 8 |c1| |c2| itself, with its sign
    f = QTPoly({(i, 0): c1 for i in range(8)})
    g = QTPoly({(i, 0): c2 for i in range(8)})
    prod = f * g
    assert prod.terms == {(k, 0): c1 * c2 * (8 - abs(k - 7)) for k in range(15)}
    _assert_stored_canonical(prod)


def test_kernel_heavy_outputs_match_recorded_digests():
    # to_json() digests recorded before the shape dispatch of QTPoly.__mul__:
    # Theta_(1,2) s_lam for lam |- 3 and nabla^(+-1) s_lam for lam |- 6
    import hashlib
    import json

    from ehall.ehallops import theta
    from ehall.macdonald import nabla
    from ehall.shapes import partitions_of
    from ehall.symfun import s_

    def digest(outputs):
        h = hashlib.sha256()
        for f in outputs:
            h.update(json.dumps(f.to_json(), sort_keys=True).encode())
        return h.hexdigest()[:16]

    assert digest(theta(1, 2, s_(lam)) for lam in partitions_of(3)) == "b9811bc0f7d7cda7"
    assert digest(nabla(s_(lam), p) for p in (1, -1) for lam in partitions_of(6)) == "b17f64b9f98e70ad"

    # recorded before the *-pairings became a basis change, H~_mu' the swap
    # of H~_mu and specialization at rational values cleared their
    # denominators: the eigenbasis up to degree 7, nabla^(+-1) s_lam for
    # lam |- 7, and values at t = 1/q, the bar and two rational bindings
    from ehall.macdonald import eigenbasis
    from ehall.symfun import specialize_coeffs

    assert digest(eigenbasis(n)[mu] for n in range(8) for mu in partitions_of(n)) == "2ceaecbac88473ff"
    assert digest(nabla(s_(lam), p) for p in (1, -1) for lam in partitions_of(7)) == "742c83f467f67b95"
    fs = [theta(1, 2, s_(lam)) for lam in partitions_of(3)] + [nabla(s_(lam), -1) for lam in partitions_of(4)]
    assert digest(specialize_coeffs(f, b) for b in _LAURENT_BINDINGS for f in fs) == "cec5599c8d02c1c0"

    # recorded before plethysm became a power-sum substitution: D_k and C_a
    # on every unit of degree <= 4 in every basis, and the Bizley generators
    from ehall.ehallops import apply_D, c_op
    from ehall.rectcomb import _bizley_generator
    from ehall.symfun import SymFun

    units = [SymFun(b, {lam: 1}) for b in "mehpsq" for d in range(5) for lam in partitions_of(d)]
    assert digest(apply_D(k, u) for k in range(-3, 4) for u in units) == "edc609aef57cb615"
    assert digest(c_op(a, u) for a in range(-2, 5) for u in units) == "99a750f22f19c1d2"
    assert digest(_bizley_generator(a, b, k) for a in range(1, 5) for b in range(1, 5)
                  for k in range(1, 4)) == "88fd69c302787fe9"

    # recorded before the m tables were read off the h<->p tables: every
    # basis change of every unit of degree <= 6
    units = [SymFun(b, {lam: 1}) for b in "mehpsq" for d in range(7) for lam in partitions_of(d)]
    assert digest(u.convert(c) for u in units for c in "mehpsq") == "d7bf9305725fa015"

    # recorded before column sums were taken in integers: nabla^(+-1) of
    # C_alpha(1), whose coordinates have monomial denominators, and seeds
    # whose coordinates have monomial, binomial and constant denominators
    from ehall.ehallops import c_alpha
    from ehall.shapes import compositions_of

    assert digest(nabla(c_alpha(al), p) for n in range(1, 6) for al in compositions_of(n)
                  for p in (1, -1)) == "2d7ae596171c336d"
    q, t, one = QTPoly.monomial(1, 1, 0), QTPoly.monomial(1, 0, 1), QTPoly(1)
    w = [QTScalar(one, one - q * t), QTScalar(q * q - t, t * t * t), QTScalar(one + q, one - t * t),
         QTScalar(3, q * t)]
    seeds = [SymFun(b, {lam: w[i % 4] for i, lam in enumerate(partitions_of(d))})
             for b in "mehpsq" for d in range(1, 5)]
    assert digest([f.convert(c) for f in seeds for c in "mehpsq"]
                  + [theta(1, 2, f) for f in seeds if f.max_degree() <= 3]
                  + [nabla(f, p) for f in seeds for p in (1, -1)]) == "7e491ca140310134"


# -- exact division by q^a - t^b ---------------------------------------------

ONE_MINUS_Q = QTPoly({(0, 0): 1, (1, 0): -1})
ONE_MINUS_T = QTPoly({(0, 0): 1, (0, 1): -1})


@settings(max_examples=80, deadline=None, derandomize=True)
@given(polys)
def test_div_one_minus_undoes_the_product(p):
    # 1 - q = -(q^1 - t^0) and 1 - t = q^0 - t^1
    assert _div(p * ONE_MINUS_Q, 1, 0) == -p
    assert _div(p * ONE_MINUS_T, 0, 1) == p
    quo = -_div(p * M_POLY, 1, 0)
    assert quo == p * ONE_MINUS_T
    assert _div(quo, 0, 1) == p
    _assert_int_or_proper_fraction(_div(quo, 0, 1))


def test_div_one_minus_reports_inexact():
    q, t = QTPoly.monomial(1, 1, 0), QTPoly.monomial(1, 0, 1)
    for p in [QTPoly(1), q, QTPoly(1) - q + t, ONE_MINUS_Q * t + QTPoly(1)]:
        assert _div(p, 1, 0) is None, p
        assert _div(p, 0, 1) is None, p
    # one row exact, another not
    assert _div(ONE_MINUS_Q + t * t, 1, 0) is None


binomial_exponents = st.tuples(st.integers(0, 4), st.integers(0, 4)).filter(any)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(polys, binomial_exponents)
def test_div_binomial_undoes_the_product(p, ab):
    a, b = ab
    prod = p * QTPoly({(a, 0): 1, (0, b): -1})
    quo = _div(prod, a, b)
    assert quo == p
    _assert_int_or_proper_fraction(quo)
    # q^a - t^b vanishes at q = t = 1, and prod + c does not when c != 0
    for c in (1, -3, Fraction(1, 2)):
        assert _div(prod + QTPoly(c), a, b) is None


@settings(max_examples=150, deadline=None, derandomize=True)
@given(polys, binomial_exponents, binomial_exponents)
def test_div_binomial_none_means_a_remainder(p, ab, cd):
    # P = p (q^c - t^d) is divisible by q^a - t^b exactly when sympy's
    # division of P by it leaves no remainder
    from sympy import QQ
    from sympy.polys.rings import ring

    a, b = ab
    prod = p * QTPoly({(cd[0], 0): 1, (0, cd[1]): -1})
    R, q, t = ring("q,t", QQ)
    big = R.from_dict(dict(prod.terms)) if prod else R.zero
    _, rem = big.div([q**a - t**b])
    quo = _div(prod, a, b)
    assert (quo is None) == bool(rem)
    if quo is not None:
        assert quo * QTPoly({(a, 0): 1, (0, b): -1}) == prod


small_binomials = st.tuples(st.integers(0, 2), st.integers(0, 2)).filter(any)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(polys, st.lists(small_binomials, max_size=4),
       st.dictionaries(small_binomials, st.integers(1, 3), min_size=1, max_size=4))
def test_div_binomials_match_division_one_factor_at_a_time(p, planted, factors):
    # the multiset division against sympy's, one factor at a time in the
    # order of factors, each while it leaves no remainder; the planted
    # binomials (from the same pool) make some of them divide, and pools
    # with b = 0 and b > 0 make the dense form change orientation
    from sympy import QQ
    from sympy.polys.rings import ring

    prod = p
    for a, b in planted:
        prod = prod * QTPoly({(a, 0): 1, (0, b): -1})
    R, q, t = ring("q,t", QQ)
    cur = R.from_dict(dict(prod.terms)) if prod else R.zero
    want = {}
    for (a, b), k in factors.items():
        for _ in range(k):
            if cur:
                [quo], rem = cur.div([q**a - t**b])
                if rem:
                    break
                cur = quo
            want[a, b] = want.get((a, b), 0) + 1
    got, divided = prod.div_binomials(factors)
    assert dict(divided) == want
    assert got == QTPoly({e: Fraction(int(c.numerator), int(c.denominator)) for e, c in cur.items()})
    _assert_stored_canonical(got)
    _assert_int_or_proper_fraction(got)


# -- specialization: substitution against the term-by-term field route --


def _subs(p, vq, vt):
    """p(vq, vt) for a QTPoly p at QTScalar values, one term at a time in
    the field."""
    total = QT_ZERO
    for (eq, et), c in p.terms.items():
        total = total + QTScalar.from_fraction(c) * vq ** eq * vt ** et
    return total


def _specialize_by_subs(x, bind):
    """The field route: evaluate num and den through QTScalar sums and
    products and divide."""
    vq, vt = bind.get("q", QT_Q), bind.get("t", QT_T)
    den = _subs(x.den, vq, vt)
    if not den:
        raise PoleError(f"denominator vanishes under {bind}")
    return _subs(x.num, vq, vt) / den


# integer monomials (t = 1, q = t = 1, q -> -2q with t -> 3, q -> t^2 with
# t -> -q, q itself) and their quotients by monomials (t = 1/q, the bar
# q, t -> 1/q, 1/t) take the one-term path of QTPoly.subs_poly
_MONOMIAL_BINDINGS = [{"t": QT_ONE}, {"q": QT_ONE, "t": QT_ONE},
                      {"q": QT_Q * -2, "t": QTScalar(3)}, {"q": QT_T * QT_T, "t": -QT_Q},
                      {"q": QT_Q}, {"t": QT_Q.inverse()}, {"q": QT_Q.inverse(), "t": QT_T.inverse()}]
# Laurent and rational values: t = 1/q and the bar take the one-term path,
# q -> t/(1 + q) and t -> (q^2 - t)/t the row path
_LAURENT_BINDINGS = [{"t": QT_Q.inverse()}, {"q": QT_Q.inverse(), "t": QT_T.inverse()},
                     {"q": QT_T / (QT_ONE + QT_Q)}, {"t": (QT_Q * QT_Q - QT_T) / QT_T}]
_BINDINGS = _MONOMIAL_BINDINGS + _LAURENT_BINDINGS[2:] + [
    {"t": QT_ONE + QT_T}, {"q": QT_T, "t": QTScalar(Fraction(2, 3))},
    {"q": QT_T * Fraction(1, 2) + QT_ONE}, {"q": QT_Q * Fraction(-3, 2) / (QT_ONE - QT_T * 2)}]


@settings(max_examples=80, deadline=None, derandomize=True)
@given(polys, polys.filter(bool), monomials)
def test_polynomial_specialization_matches_subs_route(a, b, mono):
    # reduced values with Fraction coefficients, Laurent ones among them,
    # at polynomial and at rational values
    for x in [QTScalar(a), QTScalar(a, b), QTScalar(a, mono), QTScalar(a, b * mono)]:
        for bind in _BINDINGS:
            try:
                want = _specialize_by_subs(x, bind)
            except PoleError as exc:
                with pytest.raises(PoleError) as got:
                    x.specialize(bind)
                assert str(got.value) == str(exc)
                continue
            assert x.specialize(bind).to_json() == want.to_json(), (x, bind)


def test_monomial_bindings_build_no_powers(monkeypatch):
    x = QTScalar(QTPoly({(3, 1): 2, (0, 2): -1, (1, 0): Fraction(1, 2)}), QTPoly({(2, 0): 1, (0, 1): 3}))
    want = [_specialize_by_subs(x, bind) for bind in _MONOMIAL_BINDINGS]

    def no_power(*args):
        raise AssertionError("powers built for a monomial binding")

    monkeypatch.setattr(kernel, "_power", no_power)
    assert [x.specialize(bind).to_json() for bind in _MONOMIAL_BINDINGS] == [y.to_json() for y in want]
    # q -> -2q, t -> 3 sends q^2/2 - q t/6 to 2q^2 + q: integral again
    p = QTPoly({(2, 0): Fraction(1, 2), (1, 1): Fraction(-1, 6)})
    value, m, n = p.subs_poly(QT_Q * -2, QTScalar(3))
    _assert_stored_canonical(value)
    assert value.terms == {(2, 0): 2, (1, 0): 1} and (m, n) == (0, 0)
    # q, t -> 1/q, 1/t: the exponents reversed over q^2 t^1
    value, m, n = p.subs_poly(QT_Q.inverse(), QT_T.inverse())
    assert value.terms == {(0, 1): Fraction(1, 2), (1, 0): Fraction(-1, 6)} and (m, n) == (2, 1)


def test_polynomial_specialization_pole_message():
    # a pole at a polynomial value, and 1/(1 - qt) at t = 1/q
    for x, bind in [(QT_ONE / (QT_ONE - QT_T), {"t": QT_ONE}),
                    (QT_ONE / (QT_ONE - QT_Q * QT_T), {"t": QT_Q.inverse()})]:
        with pytest.raises(PoleError) as want:
            _specialize_by_subs(x, bind)
        with pytest.raises(PoleError) as got:
            x.specialize(bind)
        assert str(got.value) == str(want.value)


# -- the heuristic gcd against sympy's cofactors ----------------------------

# int dicts; a side is content x (common factor) x (own factor), and any of
# the factors may be a single term
int_polys = st.dictionaries(st.tuples(exponents, exponents),
                            st.integers(min_value=-4, max_value=4).filter(bool),
                            min_size=1, max_size=4)
one_terms = st.dictionaries(st.tuples(exponents, exponents),
                            st.integers(min_value=-6, max_value=6).filter(bool),
                            min_size=1, max_size=1)
int_factors = st.one_of(int_polys, int_polys, one_terms)
# the same in q alone and in t alone
one_variable_factors = {
    var: st.dictionaries(exponents.map(lambda e, var=var: (e, 0) if var == "q" else (0, e)),
                         st.integers(min_value=-4, max_value=4).filter(bool),
                         min_size=1, max_size=4)
    for var in "qt"
}
contents = st.sampled_from([1, -1, 2, -3, 6, -12, 30])


def _product(*factors):
    out = QTPoly(1)
    for f in factors:
        out = out * QTPoly(f)
    return dict(out.terms)


@st.composite
def gcd_pairs(draw):
    # in q and t, or in q alone or t alone, one draw in four each
    var = draw(st.sampled_from(["qt", "qt", "q", "t"]))
    factors = int_factors if var == "qt" else one_variable_factors[var]
    common = draw(factors)
    return tuple(_product({(0, 0): draw(contents)}, common, draw(factors)) for _ in "fg")


_SIDE = {(7, 0): 1, (3, 4): -5, (0, 7): 1, (0, 0): 45}
_GCD_EXAMPLES = [
    # at q = 3 the value 4 of q^2 - q - 2 has the digits of its factor q + 1
    ({(2, 0): 1, (1, 0): -1, (0, 0): -2}, {(2, 0): 1, (1, 0): -1, (0, 0): -2}),
    ({(1, 1): 3}, {(2, 0): -6, (0, 1): 4}),
    # at q = 3 the common factor qt - 3t + 1 is 1
    (_product({(1, 1): 1, (0, 1): -3, (0, 0): 1}, {(1, 0): 1, (0, 1): 1}),
     _product({(1, 1): 1, (0, 1): -3, (0, 0): 1}, {(0, 1): 1, (0, 0): 2})),
    # at t = 3 a common factor of the images in Z[t] can take the value 1
    (_product({(1, 0): 2, (0, 1): -1}, {(2, 2): 1, (0, 2): -3}),
     _product({(1, 0): 2, (0, 1): -1}, {(0, 1): -3})),
    ({(3, 1): -1, (0, 0): 1}, {(0, 2): 1, (1, 0): -1}),
    # norms 1 and 45: the larger side's cofactor needs a larger point
    (_product({(0, 0): 720}, {(1, 1): 1, (0, 0): 1}), _product({(1, 1): 1, (0, 0): 1}, _SIDE)),
    # in q alone, the images are the integers f(xi) and g(xi)
    (_product({(0, 0): 6}, {(2, 0): 1, (0, 0): -1}, {(1, 0): 1, (0, 0): 2}),
     _product({(0, 0): 4}, {(2, 0): 1, (0, 0): -1}, {(1, 0): 1, (0, 0): -3})),
    # in t alone, with the common power t of the two sides
    ({(0, 3): 1, (0, 1): -1}, {(0, 2): 3, (0, 1): 3}),
    # a common power t^2, split off before q is evaluated; the images in
    # Z[t] then share no power of t, since the t^0 row of the side of
    # smaller norm has no root as large as a point tried
    (_product({(0, 2): 1}, {(1, 0): 1, (0, 1): 1}, {(1, 0): 1, (0, 0): 2}),
     _product({(0, 3): 2}, {(1, 0): 1, (0, 1): 1}, {(1, 1): 1, (0, 0): -1})),
    # g(q, t) has the row (q + 1)(q - 8) at t^0, so from the point 3 on the
    # image of g at q = 8 is t (t + 9): the second level splits off its t
    (_product({(1, 0): 1, (0, 1): 1, (0, 0): 1}, {(0, 1): 1, (0, 0): 1}),
     _product({(1, 0): 1, (0, 1): 1, (0, 0): 1}, {(1, 0): 1, (0, 1): 1, (0, 0): -8})),
]


def _with_fixed_pairs(test):
    for pair in _GCD_EXAMPLES:
        test = example(pair)(test)
    return test


def _sympy_cofactors(f, g):
    from sympy import ZZ
    from sympy.polys.rings import ring

    R = ring("q,t", ZZ)[0]
    return tuple({e: int(c) for e, c in p.items()} for p in R.from_dict(f).cofactors(R.from_dict(g)))


def _assert_cofactors(f, g, got):
    h, cf, cg = got
    assert _product(h, cf) == f and _product(h, cg) == g
    want = _sympy_cofactors(f, g)
    negated = tuple({e: -c for e, c in p.items()} for p in want)
    assert got in (want, negated), (f, g)


@_with_fixed_pairs
@settings(max_examples=200, deadline=None, derandomize=True)
@given(gcd_pairs())
def test_cofactors_match_sympy(pair):
    _assert_cofactors(*pair, kernel._cofactors(*pair))


@_with_fixed_pairs
@settings(max_examples=100, deadline=None, derandomize=True)
@given(gcd_pairs())
def test_cofactors_retry_from_point_3(pair):
    # every bound 2 min(|f|, |g|) + 2 is at least 4, so the loop skips the
    # point 3; from the bound up to its own first point 2 max(|f|, |g|) + 2
    # a cofactor's digits can be inexact (the pair with norms 1 and 45 fails
    # the check at 8 and 21 and passes at 114), and it retries.  At 2 the
    # symmetric digits are 0 and 1 and cannot write -1.  _cofactors takes
    # the gcd of its images by calling itself, so the patch reaches both
    # levels.
    points = kernel._points
    drawn = []

    def from_3(start):
        for xi in points(3):
            drawn.append(xi)
            yield xi

    want = kernel._cofactors(*pair)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernel, "_points", from_3)
        got = kernel._cofactors(*pair)
    assert got == want
    assert len(drawn) != 1


def test_poly_gcd_is_monic_and_exact():
    a = QTPoly({(1, 0): 2, (0, 1): -2})
    b = QTPoly({(2, 0): Fraction(1, 3), (0, 0): Fraction(-1, 3)})
    g = poly_gcd(a * b, a * QTPoly({(0, 2): 5, (1, 0): 1}))
    assert g == a * Fraction(1, 2) and g.leading()[1] == 1
    assert poly_gcd(QTPoly(), b) == b and poly_gcd(a, QTPoly()) == a


RUNTIME_WITHOUT_SYMPY = """
import sys
import ehall.checks, ehall.cli
from ehall.coeffs import QTPoly, QTScalar, poly_gcd
q1 = QTPoly({(1, 0): 1, (0, 0): 1})
t1 = QTPoly({(0, 1): 1, (0, 0): -1})
assert poly_gcd(q1 * t1, q1 * q1) == q1
x = QTScalar(q1 * q1 * 3, q1 * t1)
assert (x.num, x.den) == (q1 * 3, t1), x
assert "sympy" not in sys.modules, sorted(m for m in sys.modules if m.startswith("sympy"))[:5]
"""


def test_runtime_does_not_import_sympy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(kernel.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    run = subprocess.run([sys.executable, "-c", RUNTIME_WITHOUT_SYMPY], env=env,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
