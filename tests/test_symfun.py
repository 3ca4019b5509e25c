"""Symmetric functions: basis conversions, products, pairings, plethysm."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ehall import linalg, shapes, symfun
from ehall.coeffs import QT_M, QT_ONE, QT_Q, QT_T, QTScalar, qt
from ehall.symfun import (
    Alphabet,
    SymFun,
    e_,
    expand_in_q,
    h_,
    hall_scalar,
    hook_schur,
    m_,
    mul,
    omega,
    p_,
    plethys_whole,
    q_d,
    q_mu,
    s_,
    specialize_coeffs,
)

BASES = "mehps"
partitions = st.integers(min_value=0, max_value=5).flatmap(
    lambda d: st.sampled_from(shapes.partitions_of(d))
)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(partitions, st.sampled_from(BASES), st.sampled_from(BASES))
def test_basis_round_trip(mu, src, dst):
    f = SymFun(src, {mu: QT_Q + QT_T})
    assert f.convert(dst).convert(src) == f


@settings(max_examples=25, deadline=None, derandomize=True)
@given(partitions)
def test_q_basis_round_trip(mu):
    f = SymFun("s", {mu: QT_ONE})
    assert expand_in_q(f).convert("s") == f


def test_degree_bookkeeping():
    f = e_(2) + s_((3, 1))
    assert f.max_degree() == 4
    comps = f.degree_components()
    assert sorted(comps) == [2, 4]
    assert comps[2] == e_(2) and comps[4] == s_((3, 1))
    g = mul(p_(2), h_(3))
    assert g.is_homogeneous() and g.max_degree() == 5


def test_classical_expansions():
    # s_21 = m_21 + 2 m_111; h_2 = m_2 + m_11; p_2 = m_2 - ... checks
    assert s_((2, 1)).convert("m") == SymFun(
        "m", {(2, 1): QT_ONE, (1, 1, 1): QTScalar(2)})
    assert h_(2).convert("m") == SymFun("m", {(2,): QT_ONE, (1, 1): QT_ONE})
    assert e_(3).convert("s") == SymFun("s", {(1, 1, 1): QT_ONE})
    assert p_(3).convert("s") == SymFun(
        "s", {(3,): QT_ONE, (2, 1): -QT_ONE, (1, 1, 1): QT_ONE})


def test_pieri_product():
    # s_1 * s_1 = s_2 + s_11; s_2 * s_1 = s_3 + s_21
    assert mul(s_((1,)), s_((1,))).convert("s") == SymFun(
        "s", {(2,): QT_ONE, (1, 1): QT_ONE})
    assert mul(s_((2,)), s_((1,))).convert("s") == SymFun(
        "s", {(3,): QT_ONE, (2, 1): QT_ONE})
    # Littlewood-Richardson: s_21 * s_21 contains s_42 once, s_321 twice
    sq = mul(s_((2, 1)), s_((2, 1))).convert("s")
    assert sq.terms[(4, 2)] == QT_ONE
    assert sq.terms[(3, 2, 1)] == QTScalar(2)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(partitions, partitions)
def test_hall_pairing_orthogonality(mu, nu):
    val = hall_scalar(p_mu(mu), p_mu(nu))
    if mu == nu:
        assert val == QTScalar(shapes.z_stat(mu))
    else:
        assert val == QTScalar(0)


def p_mu(mu):
    f = SymFun.one("p")
    for k in mu:
        f = mul(f, p_(k))
    return f


def test_hall_pairing_schur_orthonormal():
    for d in range(4):
        for lam in shapes.partitions_of(d):
            for nu in shapes.partitions_of(d):
                want = QT_ONE if lam == nu else QTScalar(0)
                assert hall_scalar(s_(lam), s_(nu)) == want


def test_omega_involution():
    for d in range(1, 5):
        assert omega(e_(d)) == h_(d).convert("e")
        for mu in shapes.partitions_of(d):
            f = s_(mu)
            assert omega(omega(f)) == f
            assert omega(f).convert("s") == s_(shapes.conjugate(mu))


def test_q_d_definition():
    # q_d = sum over hooks (j|k), j+k = d-1, of (-qt)^(-j) s_(j|k)
    inv = (QT_Q * QT_T).inverse()
    assert q_d(1) == s_((1,))
    assert q_d(2).convert("s") == SymFun("s", {(1, 1): QT_ONE, (2,): -inv})
    assert q_d(3).convert("s") == SymFun(
        "s", {(1, 1, 1): QT_ONE, (2, 1): -inv, (3,): inv * inv})
    assert q_mu((2, 1)) == mul(q_d(2), q_d(1))


def test_q_d_specializations():
    # at qt = 1 (t -> 1/q), q_d becomes (-1)^(d-1) p_d
    for d in range(1, 5):
        f = specialize_coeffs(q_d(d), {"t": QT_Q.inverse()})
        assert f.convert("p") == p_(d).scale(QTScalar((-1) ** (d - 1)))


def test_hook_schur():
    assert hook_schur(2, 0) == s_((3,))
    assert hook_schur(0, 2) == s_((1, 1, 1))
    assert hook_schur(1, 1) == s_((2, 1))


def test_plethysm_power_sum_rules():
    # p_k[x + M/z]: z^0 part is p_k, z^(-k) part is M(q^k,t^k)
    img = Alphabet.x_plus_m_over_z().power_sum_image(2)
    byz = {}
    for z, f in img:
        byz[z] = byz.get(z, SymFun.zero("p")) + f
    assert byz[0] == p_(2)
    m2 = byz[-2].terms[()]
    want = (QT_ONE - QT_T**2) * (QT_ONE - QT_Q**2)
    assert m2 == want


def test_plethysm_constant_alphabet():
    # p_k[m x] = m p_k for constant m; e_2[2x] = 2 e_2 + ... check via m-count
    f = plethys_whole(e_(2), Alphabet.scaled(QTScalar(2)))
    # e_2 = (p_11 - p_2)/2 -> (4 p_11 - 2 p_2)/2 = 2p_11 - p_2
    assert f.convert("p") == SymFun(
        "p", {(1, 1): QTScalar(2), (2,): -QT_ONE})


def test_plethys_whole_rejects_z_content():
    with pytest.raises(AssertionError):
        plethys_whole(e_(1), Alphabet.x_plus_m_over_z())


def test_json_round_trip():
    f = s_((2, 1)).scale(QT_Q * QT_T.inverse()) + e_(2).convert("s")
    assert SymFun.from_json(f.to_json()) == f


def test_specialize_coeffs():
    f = s_((1,)).scale(QT_T)
    assert specialize_coeffs(f, {"t": QT_ONE}) == s_((1,))


# -- the p/m tables against brute monomial expansion -----------------------


def _expand_p_monomials(mu: tuple, nvars: int):
    """Exact expansion of p_mu as a polynomial in nvars variables."""
    terms = {(0,) * nvars: Fraction(1)}
    for k in mu:
        new = {}
        for expt, c in terms.items():
            for i in range(nvars):
                e2 = list(expt)
                e2[i] += k
                e2 = tuple(e2)
                s = new.get(e2, 0) + c
                new[e2] = s
        terms = new
    return terms


def test_p_m_tables_match_monomial_expansion():
    for d in range(1, 7):
        parts = shapes.partitions_of(d)
        p2m = symfun._p_m_matrices(d)[0]
        for mu in parts:
            expansion = _expand_p_monomials(mu, d)
            want = {}
            for nu in parts:
                c = expansion.get(tuple(nu) + (0,) * (d - len(nu)))
                if c:
                    want[nu] = c
            assert p2m[mu] == want, (d, mu)
            # Fraction entries keep the inversion to m2p exact
            assert all(type(c) is Fraction for c in p2m[mu].values())


def test_m_to_p_table_matches_inverse_oracle():
    # the m-to-p table by forward substitution against inverting the p-to-m
    # matrix, entry for entry and in the same order
    for d in range(1, 9):
        parts = shapes.partitions_of(d)
        p2m, m2p = symfun._p_m_matrices(d)
        mat = [[p2m[mu].get(nu, Fraction(0)) for nu in parts] for mu in parts]
        inv = linalg.inverse(mat)
        for i, mu in enumerate(parts):
            want = {parts[j]: inv[i][j] for j in range(len(parts)) if inv[i][j]}
            assert list(m2p[mu].items()) == list(want.items()), (d, mu)
            assert all(type(c) is Fraction for c in m2p[mu].values())


# -- the q-basis tables against the hook convolution and elimination -------


def _q_d_in_p_by_hooks(d: int):
    """Oracle: q_d = sum_(j+k=d-1) (-qt)^(-j) s_(j|k), expanded into p."""
    out = {}
    for j in range(d):
        coeff = QTScalar.qt_monomial((-1) ** j, -j, -j)
        for nu, f in symfun._s_in_p(shapes.hook(j, d - 1 - j)).items():
            out[nu] = out.get(nu, QTScalar(0)) + coeff * f
    return {nu: c for nu, c in out.items() if c}


def _q_mu_in_p_by_hooks(mu):
    """Oracle: q_mu as the product of the q_(mu_i), convolved in p."""
    out = {(): QT_ONE}
    for part in mu:
        nxt = {}
        for nu1, c1 in out.items():
            for nu2, c2 in _q_d_in_p_by_hooks(part).items():
                key = shapes.union_parts(nu1, nu2)
                nxt[key] = nxt.get(key, QTScalar(0)) + c1 * c2
        out = {nu: c for nu, c in nxt.items() if c}
    return out


def _json(table):
    return {nu: c.to_json() for nu, c in table.items()}


def test_q_tables_match_hook_and_elimination_oracles():
    # the closed forms against the hook convolution (q to p) and against
    # Gaussian elimination of its transition matrix (p to q), entry for entry
    for d in range(1, 8):
        parts = shapes.partitions_of(d)
        old = {mu: _q_mu_in_p_by_hooks(mu) for mu in parts}
        for mu in parts:
            assert _json(symfun._q_mu_in_p(mu)) == _json(old[mu]), mu
        mat = [[old[mu].get(nu, QTScalar(0)) for mu in parts] for nu in parts]
        want = [[c.to_json() for c in row] for row in linalg.inverse(mat)]
        assert [[c.to_json() for c in row] for row in symfun._q_inverse(d)] == want, d
