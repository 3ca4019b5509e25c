"""Symmetric functions: basis conversions, products, pairings, plethysm."""

from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ehall import linalg, shapes, symfun
from ehall.coeffs import QT_ONE, QT_Q, QT_T, QTPoly, QTScalar
from ehall.ehallops import _m_power_sum, _over_m
from ehall.rectcomb import _bizley_generator
from ehall.symfun import (
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
    plethys,
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
    # p_k[X + M/z] = p_k + M(q^k, t^k) z^(-k)
    want = (QT_ONE - QT_T**2) * (QT_ONE - QT_Q**2)
    assert plethys(p_(2), _m_power_sum) == {0: {(2,): QT_ONE}, 2: {(): want}}


@pytest.mark.parametrize("n", range(7))
def test_plethysm_addition_formula(n):
    # the alphabet of the one variable 1/z: h_n[X + 1/z] = sum_i h_(n-i) z^(-i),
    # e_n[X + 1/z] = e_n + e_(n-1) / z
    def one(k):
        return QT_ONE

    def parts(f, basis):
        return {j: SymFun("p", part).convert(basis) for j, part in plethys(f, one).items()}

    assert parts(h_(n), "h") == {i: h_(n - i) for i in range(n + 1)}
    assert parts(e_(n), "e") == ({0: e_(0)} if n == 0 else {0: e_(n), 1: e_(n - 1)})


def test_plethysm_constant_alphabet():
    # p_k[2x] = 2 p_k: e_2 = (p_11 - p_2)/2 -> (4 p_11 - 2 p_2)/2 = 2p_11 - p_2
    assert _bizley_generator(1, 1, 2) == SymFun("p", {(1, 1): QTScalar(2), (2,): -QT_ONE})


#: nonzero coefficients with polynomial and binomial denominators
_EQ_COEFFS = [QT_ONE, -QT_ONE, QTScalar(Fraction(3, 2)), QT_Q, QT_Q + QT_T,
              QT_T * QT_Q.inverse(), (QT_ONE - QT_Q).inverse(),
              QT_Q * (QT_ONE - QT_Q * QT_T).inverse()]
symfun_terms = st.dictionaries(partitions, st.sampled_from(_EQ_COEFFS), max_size=4)


def _clean(f: SymFun) -> bool:
    """The canonical terms that same-basis equality compares as stored."""
    return all(type(mu) is tuple and isinstance(c, QTScalar) and c for mu, c in f.terms.items())


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(symfun.BASES), st.sampled_from(symfun.BASES), symfun_terms, symfun_terms)
def test_same_basis_equality_matches_the_p_route(basis, other, t1, t2):
    f, g = SymFun(basis, t1), SymFun(basis, t2)
    assert (f == g) == (f.convert("p").terms == g.convert("p").terms)
    # equal pairs: built by other routes, each of which ends in _raw
    back = f.convert(other).convert(basis)  # sum_columns, both ways
    for h in (back, f + g - g, (f + g) + (-g), f.scale(QT_Q).scale(QT_Q.inverse())):
        assert h.basis == basis and _clean(h)
        assert h == f and h.terms == f.terms and hash(h) == hash(f)
    # unequal pairs
    for c in _EQ_COEFFS:
        h = f + SymFun(basis, {(2, 1): c})
        assert _clean(h) and h != f and h.convert("p").terms != f.convert("p").terms
    # zero, in every basis
    zero = SymFun.zero(basis)
    for h in (f - f, f + (-f), f.scale(0), f.scale(QT_Q) - f.scale(QT_Q)):
        assert h.terms == {} and h == zero and h == SymFun.zero(other)
    assert (f == zero) == (not t1)
    assert _clean(_over_m(f)) and _clean(f.convert(other)) and _clean(f + g)


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
        for mu in parts:
            expansion = _expand_p_monomials(mu, d)
            want = {}
            for nu in parts:
                c = expansion.get(tuple(nu) + (0,) * (d - len(nu)))
                if c:
                    want[nu] = c
            column = symfun._p_in_m(mu)
            assert column == want, (d, mu)
            # Fraction entries, as in every other table of the module
            assert all(type(c) is Fraction for c in column.values())


def test_m_to_p_table_matches_inverse_oracle():
    # the m-to-p columns, read off the h<->p tables by duality, against
    # inverting the matrix of the p-to-m columns, entry for entry and in
    # the same order
    for d in range(1, 9):
        parts = shapes.partitions_of(d)
        mat = [[symfun._p_in_m(mu).get(nu, Fraction(0)) for nu in parts] for mu in parts]
        inv = linalg.inverse(mat)
        for i, mu in enumerate(parts):
            want = {parts[j]: inv[i][j] for j in range(len(parts)) if inv[i][j]}
            column = symfun._m_in_p(mu)
            assert list(column.items()) == list(want.items()), (d, mu)
            assert all(type(c) is Fraction for c in column.values())


# -- the q-basis tables against the hook convolution and elimination -------


def _q_d_in_p_by_hooks(d: int):
    """Oracle: q_d = sum_(j+k=d-1) (-qt)^(-j) s_(j|k), expanded into p."""
    out = {}
    for j in range(d):
        coeff = QTScalar.qt_monomial((-1) ** j, -j, -j)
        for nu, f in symfun._s_in_p(shapes.hook(j, d - 1 - j)).items():
            out[nu] = out.get(nu, QTScalar(0)) + coeff * f
    return {nu: c for nu, c in out.items() if c}


@lru_cache(maxsize=None)
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


@lru_cache(maxsize=None)
def _p_to_q_matrix(d: int):
    """Oracle: [q_mu] p_rho in row mu, column rho (partitions_of(d) order),
    by Gaussian elimination of the hook-convolution transition matrix."""
    parts = shapes.partitions_of(d)
    mat = [[_q_mu_in_p_by_hooks(mu).get(nu, QTScalar(0)) for mu in parts] for nu in parts]
    return linalg.inverse(mat)


def _expand_in_q_by_matrix(f):
    """Oracle: f in the q basis, per degree the p-to-q matrix times the
    p-coordinates."""
    out = {}
    for d, comp in f.convert("p").degree_components().items():
        parts = shapes.partitions_of(d)
        inv = _p_to_q_matrix(d)
        vec = [comp.terms.get(nu, QTScalar(0)) for nu in parts]
        for i, mu in enumerate(parts):
            c = QTScalar(0)
            for j in range(len(parts)):
                if vec[j]:
                    c = c + inv[i][j] * vec[j]
            if c:
                out[mu] = c
    return SymFun("q", out)


def _json(table):
    return {nu: c.to_json() for nu, c in table.items()}


def test_q_tables_match_hook_and_elimination_oracles():
    # the closed forms against the hook convolution (q to p) and against
    # Gaussian elimination of its transition matrix (p to q), entry for entry
    for d in range(1, 8):
        parts = shapes.partitions_of(d)
        for mu in parts:
            assert _json(symfun._q_mu_in_p(mu)) == _json(_q_mu_in_p_by_hooks(mu)), mu
        inv = _p_to_q_matrix(d)
        for j, rho in enumerate(parts):
            want = {mu: inv[i][j].to_json() for i, mu in enumerate(parts) if inv[i][j]}
            assert _json(symfun._p_in_q(rho)) == want, rho


def _one_minus_qt_powers(rho):
    """prod_j (1 - (qt)^rho_j)."""
    out = QTPoly(1)
    for part in rho:
        out = out * (QTPoly(1) - QTPoly.monomial(1, part, part))
    return out


def _q_scale(mu):
    """prod_i (-qt)^(mu_i - 1) (1 - qt)."""
    k = sum(mu) - len(mu)
    return QTPoly.monomial((-1) ** k, k, k) * (QTPoly(1) - QTPoly.monomial(1, 1, 1)) ** len(mu)


def test_q_tables_closed_forms_match_the_reduced_quotients():
    # each closed-form entry, built without a gcd, has the to_json() of the
    # same quotient reduced by QTScalar's normalization (a cofactor call)
    for d in range(8):
        for rho in shapes.partitions_of(d):
            want = {nu: QTScalar(_one_minus_qt_powers(nu) * c, _q_scale(rho)).to_json()
                    for nu, c in symfun._gen_prod("h>p", rho).items()}
            assert _json(symfun._q_mu_in_p(rho)) == want, rho
            want = {mu: QTScalar(_q_scale(mu) * c, _one_minus_qt_powers(rho)).to_json()
                    for mu, c in symfun._gen_prod("p>h", rho).items()}
            assert _json(symfun._p_in_q(rho)) == want, rho


def test_q_conversion_of_mixed_degrees_matches_the_matrix_route():
    laurent = QTScalar.qt_monomial(-3, -2, 1) + QT_Q  # q - 3t/q^2
    pole = QT_ONE / (QT_ONE - QT_Q)
    f = SymFun("s", {(): pole, (1,): laurent, (1, 1): QTScalar(Fraction(2, 3)),
                     (2, 1): laurent * pole, (4,): QT_T, (2, 2, 1): laurent,
                     (3, 2): -pole})
    f = f + e_(4).scale(pole) + m_((2, 1, 1, 1)).scale(laurent)
    assert sorted({sum(mu) for mu in f.terms}) == [0, 1, 2, 3, 4, 5]
    want = _expand_in_q_by_matrix(f).to_json()
    for basis in "smp":
        assert f.convert(basis).convert("q").to_json() == want, basis
    assert expand_in_q(f).to_json() == want


# -- sum_columns against the per-pair loop -----------------------------------


def _ref_sum_columns(basis, coords, column):
    """The per-pair loop that sum_columns replaced: one normalized QTScalar
    product and one Henrici sum for every (lam, nu) pair."""
    out = {}
    for lam, c in coords.items():
        for nu, v in column(lam).items():
            s = out.get(nu, QTScalar.zero()) + c * v
            if s:
                out[nu] = s
            else:
                out.pop(nu, None)
    return SymFun._raw(basis, out)


_one, _q, _t = QTPoly(1), QTPoly.monomial(1, 1, 0), QTPoly.monomial(1, 0, 1)
#: denominators: 1, monomials, and others, some with a monomial factor
_DENS = [_one, _q, _t * _t, _q * _t ** 3, _one - _q * _t, _one + _q,
         _q - _t * _t, _t * (_one - _q), (_one - _t) ** 2]
#: numerators up to 12 terms, so that some products are packed; the
#: coefficients are ints, or rationals over 2, 3 and 6
_nums = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    st.builds(Fraction, st.integers(-9, 9).filter(bool), st.sampled_from([1, 1, 2, 3, 6])),
    min_size=1, max_size=12,
).map(QTPoly)
_scalars = st.builds(QTScalar, _nums, st.sampled_from(_DENS))
_coords = st.one_of(st.just(QT_ONE), _scalars)
_entries = st.one_of(st.integers(-5, 5).filter(bool),
                     st.builds(Fraction, st.integers(-5, 5).filter(bool), st.integers(1, 6)),
                     _scalars)
_parts = st.sampled_from([mu for d in range(4) for mu in shapes.partitions_of(d)])


def _assert_sums_match(coords, columns):
    got = symfun.sum_columns("s", coords, columns.__getitem__)
    want = _ref_sum_columns("s", coords, columns.__getitem__)
    assert got.terms == want.terms
    for c in got.terms.values():
        assert c and c == QTScalar(c.num, c.den)
    return got


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.dictionaries(_parts, _coords, min_size=1, max_size=4),
       st.lists(st.dictionaries(_parts, _entries, max_size=5), min_size=4, max_size=4),
       st.data())
def test_sum_columns_matches_the_per_pair_loop(coords, cols, data):
    columns = {lam: cols[k] for k, lam in enumerate(coords)}
    total = _assert_sums_match(coords, columns).terms
    if not total:
        return
    # one nu cancels to zero, and another cancels and then comes back:
    # the cancelling entry has the denominator of the whole sum, so it
    # meets the others across the two routes
    gone, back = data.draw(st.sampled_from(sorted(total))), data.draw(_parts)
    coords, columns = dict(coords), dict(columns)
    coords[(9,)], columns[(9,)] = QT_ONE, {gone: -total[gone]}
    if back in total and back != gone:
        columns[(9,)][back] = -total[back]
        coords[(8,)], columns[(8,)] = data.draw(_coords), {back: data.draw(_entries)}
    got = _assert_sums_match(coords, columns).terms
    assert gone not in got and (back == gone or back not in total or back in got)


def test_sum_columns_cancellation_within_one_route():
    laurent = QTScalar(_q * _q - _t, _t ** 3)
    coords = {(1,): laurent, (2,): -laurent, (1, 1): QTScalar(_one + _q, _q)}
    columns = {(1,): {(3,): Fraction(1, 2), (2, 1): QT_ONE},
               (2,): {(3,): Fraction(1, 2), (2, 1): QT_ONE},
               (1, 1): {(2, 1): QTScalar(Fraction(2, 3))}}
    got = _assert_sums_match(coords, columns).terms
    assert list(got) == [(2, 1)]
    assert got[(2, 1)] == QTScalar((_one + _q) * Fraction(2, 3), _q)
    # the sum's negative exponents cancel: no shift is left
    coords = {(1,): QTScalar(_one + _q, _q * _t), (2,): QTScalar(-_one, _q * _t)}
    columns = {(1,): {(1,): 1}, (2,): {(1,): 1}}
    assert _assert_sums_match(coords, columns).terms == {(1,): QTScalar(1, _t)}
