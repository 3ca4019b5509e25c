"""Operator machinery: D_k, the bracket recursion, theta, composition ops."""

import pytest

from ehall import ehallops, macdonald, shapes, symfun
from ehall.coeffs import QT_M, QT_ONE, QT_Q, QT_T, QTScalar
from ehall.ehallops import (
    apply_D,
    apply_Q,
    bracket_word,
    c_alpha,
    c_op,
    m_power,
    q_split,
    theta,
)
from ehall.symfun import SymFun, e_, h_, mul, p_, q_d, q_mu, s_


def test_apply_D_on_constants():
    one = SymFun.one("p")
    for k in range(5):
        assert apply_D(k, one) == e_(k).scale(QTScalar((-1) ** k))


def test_apply_D0_on_p1():
    # D_0 p_1 = (1 - M) p_1 with M = (1-t)(1-q)
    assert apply_D(0, p_(1)) == p_(1).scale(QT_ONE - QT_M)


def test_q_split_lattice_condition():
    for m, n in [(4, 3), (6, 3), (2, 2), (3, 5), (5, 2), (6, 4)]:
        (k, l), (u, v) = q_split(m, n)
        assert k + u == m and l + v == n
        # determinant condition on the coprime direction
        from math import gcd

        d = gcd(m, n)
        a, b = m // d, n // d
        assert a * l - b * k == 1


def test_bracket_words_match_recursion():
    assert bracket_word(1, 1) == "[e1,D0]"
    assert bracket_word(4, 3) == "[[e1,D0],[[e1,D0],[[e1,D0],D0]]]"
    assert bracket_word(6, 3) == "[[e1,D0],[[[e1,D0],D0],[[[e1,D0],D0],D0]]]"


def test_m_power_counts_brackets():
    assert m_power(1, 1) == 1
    assert m_power(4, 3) == 6
    assert m_power(6, 3) == 8


def test_axis_operators():
    one = SymFun.one("p")
    # vertical axis: multiplication by q_l
    assert apply_Q(0, 2, q_d(1)) == mul(q_d(2), q_d(1))
    # Q_(1,0) = D_0; Q_(1,1)(1) = e_1
    assert apply_Q(1, 0, p_(1)) == apply_D(0, p_(1))
    assert apply_Q(1, 1, one) == e_(1)


def test_theta_identity_direction():
    # Theta_(0,1) is the identity
    f = s_((2, 1)) + e_(2).scale(QT_Q)
    assert theta(0, 1, f, f) == mul(
        f.convert("p"), f.convert("p"))  # acts by multiplication by f
    assert theta(0, 1, f) == f


def test_theta_01_returns_its_seed():
    # Theta_(0,1)(f)(1) = f: the seed itself, in its own basis, with no
    # column stored
    f = SymFun("m", {(3, 2, 1): QT_Q, (2,): QT_ONE})
    before = len(ehallops._apply_memo)
    assert theta(0, 1, f) is f
    assert len(ehallops._apply_memo) == before
    assert not any(key[0] == ("theta", 0, 1) for key in ehallops._apply_memo)


def test_theta_multiplicative_on_q_mu():
    # Theta(q_mu) = prod Theta(q_(mu_i)) acting on 1
    lhs = theta(1, 1, q_mu((2, 1)))
    rhs = apply_Q(2, 2, apply_Q(1, 1, SymFun.one("p")))
    assert lhs == rhs


def test_theta_negative_a():
    # Theta_(-1,1) conjugates back through the eigenoperator: on q_1 it
    # must send 1 to a degree-1 symmetric function
    f = theta(-1, 1, q_d(1))
    assert f.is_homogeneous() and f.max_degree() == 1


def test_c_op_base_cases():
    one = SymFun.one("p")
    for a in range(1, 4):
        want = h_(a).scale(QTScalar.qt_monomial((-1) ** (1 - a), 0, 1 - a))
        assert c_op(a, one) == want


def test_c_alpha_order():
    # c_alpha applies C_(a_1) ... C_(a_k) right to left
    assert c_alpha((2,)) == c_op(2, SymFun.one("p"))
    assert c_alpha((1, 2)) == c_op(1, c_op(2, SymFun.one("p")))


def test_c_alpha_sums_to_e_d():
    # sum over compositions alpha of d of C_alpha(1) = e_d
    from ehall import shapes

    for d in range(1, 5):
        total = SymFun.zero("p")
        for alpha in shapes.compositions_of(d):
            total = total + c_alpha(alpha)
        assert total == e_(d)


def test_degree_bookkeeping_of_theta():
    # Theta_(a,b) multiplies degree by b
    for a, b in [(1, 1), (1, 2), (2, 1), (3, 2)]:
        f = theta(a, b, e_(2))
        assert f.is_homogeneous() and f.max_degree() == 2 * b


# -- theta with g = 1 as a combination of cached columns -------------------

_NEG_QT_INV = (-(QT_Q * QT_T)).inverse()
_ONE_OVER_1_MINUS_Q = (QT_ONE - QT_Q).inverse()

#: one seed per basis, multi-term seeds with Q(q,t) coefficients, and a
#: seed mixing degrees 0, 1 and 3; total degree at most 3
_COLUMN_SEEDS = [
    SymFun("m", {(2, 1): QT_ONE}),
    SymFun("e", {(3,): QT_ONE}),
    SymFun("h", {(1, 1): QT_ONE}),
    SymFun("p", {(2, 1): QT_ONE}),
    SymFun("s", {(2, 1): QT_ONE}),
    SymFun("q", {(2, 1): QT_ONE}),
    SymFun("s", {(3,): _NEG_QT_INV, (2, 1): _ONE_OVER_1_MINUS_Q, (1, 1, 1): QT_Q + QT_T}),
    SymFun("e", {(2,): _NEG_QT_INV * QT_T, (1, 1): QTScalar(-3)}),
    SymFun("h", {(): QTScalar(2), (1,): _ONE_OVER_1_MINUS_Q, (2, 1): QT_Q - QT_ONE}),
]


@pytest.mark.parametrize("a,b", [(0, 1), (1, 1), (1, 2), (2, 1), (3, 1), (3, 2), (1, 3),
                                 (2, 3), (1, 4)])
def test_theta_columns_match_direct_route(a, b):
    # the explicit-g route applies Theta to the whole seed at once; for
    # a >= b the columns go through nabla instead, for a < b through the
    # q-basis prefix columns.  Theta_(3,2) of a degree-3 seed needs
    # Q_(9,6) and Theta_(2,3) needs Q_(6,9), so their seeds, and those of
    # (1,3) and (1,4), stop at degree 2.
    for f in _COLUMN_SEEDS:
        if b >= 2 and (a, b) != (1, 2) and f.max_degree() > 2:
            continue
        direct = theta(a, b, f, SymFun.one("p"))
        combined = theta(a, b, f)
        assert combined.convert("s").to_json() == direct.convert("s").to_json(), f


def test_theta_11_shear_matches_commutators():
    # Theta_(1,1)(f)(1) = nabla f by the columns; the commutator route is
    # independent of nabla
    seeds = [e_(d) for d in range(1, 6)] + [h_(d) for d in range(1, 6)]
    seeds += [s_(mu) for d in range(1, 6) for mu in shapes.partitions_of(d)]
    for f in seeds:
        direct = ehallops._theta_direct(1, 1, f, SymFun.one("p"))
        assert theta(1, 1, f).convert("s").to_json() == direct.convert("s").to_json(), f


def test_theta_prefix_columns_match_direct_route():
    # every s_lam of output degree b|lam| <= 6, as in the criterion-9 sweep;
    # the three operators run in one test, so their q-basis columns must be
    # kept apart by (a, b)
    for a, b in [(1, 2), (1, 3), (2, 3)]:
        for d in range(6 // b + 1):
            for lam in shapes.partitions_of(d):
                f = s_(lam) if lam else SymFun.one("s")
                direct = ehallops._theta_direct(a, b, f, SymFun.one("p"))
                got = theta(a, b, f)
                assert got.convert("s").to_json() == direct.convert("s").to_json(), (a, b, f)
        assert (("theta", a, b), "q", (1,)) in ehallops._apply_memo


def test_theta_prefix_column_store_bounded():
    _assert_store_bounded_at_degree_3(lambda f: theta(1, 2, f))


def test_theta_negative_a_columns_match_explicit_g():
    for f in _COLUMN_SEEDS:
        assert theta(-1, 1, f) == theta(-1, 1, f, SymFun.one("p")), f


def test_theta_column_cache_reused_across_scalar_multiples():
    # Theta_(1,1)(f)(1) is nabla f, applied through the stored nabla columns
    f = SymFun("s", {(2, 1): QT_ONE, (1,): QT_Q})
    first = theta(1, 1, f)
    assert all((1, mu) in macdonald._columns for mu in f.terms)
    before = len(macdonald._columns), len(ehallops._apply_memo)
    again = theta(1, 1, f.scale(_ONE_OVER_1_MINUS_Q))
    assert (len(macdonald._columns), len(ehallops._apply_memo)) == before  # no new column
    assert again == first.scale(_ONE_OVER_1_MINUS_Q)


# -- Q_(m,n) as a combination of cached columns ----------------------------


def _apply_tree(node, f):
    """The bracket recursion applied to the whole of f: both orders of every
    commutator are evaluated again at each level."""
    if node[0] == "e":
        return mul(q_d(node[1]), f)
    if node[0] == "D":
        return apply_D(0, f)
    left, right = node[1], node[2]
    lr = _apply_tree(left, _apply_tree(right, f))
    rl = _apply_tree(right, _apply_tree(left, f))
    return (lr - rl).scale(QT_M.inverse())


#: bidegrees with m + n <= 5 that have a bracket tree
_SMALL_BIDEGREES = [(m, n) for m in range(6) for n in range(6 - m)
                    if (m, n) != (0, 0) and (n > 0 or m == 1)]

#: one seed per basis p, s, m, q; multi-term seeds with (-qt)^-1 and
#: 1/(1-q) coefficients and mixed degrees
_Q_SEEDS = [
    SymFun("p", {(2,): QT_ONE, (1,): _NEG_QT_INV}),
    SymFun("s", {(2, 1): _ONE_OVER_1_MINUS_Q, (1, 1): _NEG_QT_INV, (): QT_T}),
    SymFun("m", {(1, 1): QT_ONE, (2,): _ONE_OVER_1_MINUS_Q}),
    SymFun("q", {(2,): _NEG_QT_INV, (1, 1): QT_ONE}),
]


@pytest.mark.parametrize("m,n", _SMALL_BIDEGREES)
def test_apply_Q_matches_bracket_recursion(m, n):
    tree = ehallops.bracket_tree(m, n)
    for f in _Q_SEEDS:
        want = _apply_tree(tree, f).convert("s").to_json()
        assert apply_Q(m, n, f).convert("s").to_json() == want, f


def _assert_store_bounded_at_degree_3(op):
    """Once op has met every s_lam with |lam| = 3, 20 distinct degree-3
    seeds add no column."""
    parts = shapes.partitions_of(3)
    op(SymFun("s", {lam: QT_ONE for lam in parts}))
    before = len(ehallops._apply_memo)
    coeffs = [QT_ONE, QT_Q, QT_T, _NEG_QT_INV, _ONE_OVER_1_MINUS_Q]
    seen = set()
    for i in range(20):
        f = SymFun("s", {lam: coeffs[(i + j) % 5] * QTScalar(i + 1)
                         for j, lam in enumerate(parts) if (i >> j) & 1 or j == i % 3})
        seen.add(f.key())
        op(f)
    assert len(seen) == 20
    assert len(ehallops._apply_memo) == before


def test_column_store_bounded_at_one_degree():
    _assert_store_bounded_at_degree_3(lambda f: apply_Q(2, 1, f))
