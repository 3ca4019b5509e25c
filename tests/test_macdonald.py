"""Modified Macdonald eigenbasis and the nabla eigenoperator."""

from fractions import Fraction
from functools import lru_cache
from math import factorial

from ehall import coeffs, linalg, macdonald, shapes, symfun
from ehall.checks import at_qt1, delta_dim
from ehall.ehallops import apply_D, theta
from ehall.macdonald import (
    eigenbasis,
    expand_in_eigenbasis,
    nabla,
    nabla_eigenvalue,
)
from ehall.coeffs import QT_M, QT_ONE, QT_Q, QT_T, QT_ZERO, QTScalar
from ehall.symfun import SymFun, e_, h_, s_, specialize_coeffs


def test_degree_two_eigenbasis():
    basis = eigenbasis(2)
    assert basis[(2,)] == SymFun("s", {(2,): QT_ONE, (1, 1): QT_Q})
    assert basis[(1, 1)] == SymFun("s", {(2,): QT_ONE, (1, 1): QT_T})


def test_eigen_relation():
    for n in range(1, 5):
        for mu, H in eigenbasis(n).items():
            assert apply_D(0, H) == H.scale(d0_eigenvalue(mu))


def test_b_mu():
    assert b_mu((1,)) == QT_ONE
    assert b_mu((2, 1)) == QT_ONE + QT_Q + QT_T


def test_nabla_eigenvalue():
    assert nabla_eigenvalue((2,)) == QT_Q
    assert nabla_eigenvalue((1, 1)) == QT_T
    assert nabla_eigenvalue((2, 1)) == QT_Q * QT_T


def test_nabla_e2():
    assert nabla(e_(2)) == SymFun("s", {(2,): QT_ONE, (1, 1): QT_Q + QT_T})


def test_qt_catalan():
    # <nabla e_n, e_n> is the q,t-Catalan polynomial
    c3 = nabla(e_(3)).convert("s").terms[(1, 1, 1)]
    want = (QT_Q**3 + QT_Q**2 * QT_T + QT_Q * QT_T**2 + QT_T**3 + QT_Q * QT_T)
    assert c3 == want


def test_nabla_matches_theta_1_1():
    for d in range(1, 5):
        assert theta(1, 1, e_(d)) == nabla(e_(d))


def test_nabla_inverse():
    f = s_((2, 1)) + e_(2).convert("s")
    assert nabla(nabla(f), power=-1) == f
    assert nabla(f, power=0) == f


def test_expand_in_eigenbasis_round_trip():
    f = s_((3,)) + s_((2, 1)).scale(QT_Q)
    coords = expand_in_eigenbasis(f)
    back = SymFun.zero("s")
    for mu, c in coords.items():
        back = back + eigenbasis(sum(mu))[mu].scale(c)
    assert back == f


def test_diagonal_harmonics_dimension():
    # <nabla e_n, p_1^n> at q = t = 1 equals (n+1)^(n-1)
    from ehall.checks import at_qt1, delta_dim

    for n in range(1, 5):
        val = delta_dim(at_qt1(nabla(e_(n)))).as_fraction()
        assert val == (n + 1) ** (n - 1)


# -- the D_0 eigenvector route, kept as an oracle for the HHL formula ------


def b_mu(mu) -> QTScalar:
    """B_mu(q,t) = sum over cells (i,j) of q^(j-1) t^(i-1)."""
    total = QT_ZERO
    for i, part in enumerate(mu, start=1):
        for j in range(1, part + 1):
            total = total + QTScalar.qt_monomial(1, j - 1, i - 1)
    return total


def d0_eigenvalue(mu) -> QTScalar:
    """Eigenvalue of D_0 on H~_mu: 1 - M B_mu."""
    return QT_ONE - QT_M * b_mu(mu)


def _d0_matrix(n):
    """Matrix of D_0 on the Schur basis at degree n (columns act on s_lam)."""
    parts = shapes.partitions_of(n)
    cols = []
    for lam in parts:
        image = apply_D(0, s_(lam)).convert("s")
        cols.append([image.terms.get(nu, QT_ZERO) for nu in parts])
    return [[cols[j][i] for j in range(len(parts))] for i in range(len(parts))]


def _nullspace_eigenbasis(n):
    """H~_mu as the kernel of D_0 - (1 - M B_mu), normalized at s_(n)."""
    parts = shapes.partitions_of(n)
    if n == 0:
        return {(): SymFun.one("s")}
    mat = _d0_matrix(n)
    k = len(parts)
    out = {}
    for mu in parts:
        ev = d0_eigenvalue(mu)
        shifted = [[mat[i][j] - ev if i == j else mat[i][j] for j in range(k)] for i in range(k)]
        (vec,) = linalg.nullspace(shifted)  # each eigenspace is a line
        inv = vec[parts.index((n,))].inverse()
        out[mu] = SymFun("s", {parts[i]: vec[i] * inv for i in range(k) if vec[i]})
    return out


def test_eigenbasis_matches_nullspace_oracle():
    for n in range(6):
        oracle = _nullspace_eigenbasis(n)
        basis = eigenbasis(n)
        assert list(basis) == list(oracle)
        for mu, H in basis.items():
            assert H.to_json() == oracle[mu].to_json()
            assert list(H.terms) == list(oracle[mu].terms)


def test_eigen_relation_degree_6():
    for mu, H in eigenbasis(6).items():
        assert apply_D(0, H) == H.scale(d0_eigenvalue(mu))


def test_qt_duality():
    # H~_mu(q,t) = H~_mu'(t,q)
    swap = {"q": QT_T, "t": QT_Q}
    for n in range(1, 7):
        basis = eigenbasis(n)
        for mu, H in basis.items():
            assert specialize_coeffs(H, swap) == basis[shapes.conjugate(mu)]


def test_swapped_half_matches_hhl_fillings():
    # eigenbasis fills only mu >= mu' and swaps q, t for the others: build
    # those from the Haglund-Haiman-Loehr fillings directly
    for n in range(1, 7):
        parts = shapes.partitions_of(n)
        basis = eigenbasis(n)
        assert list(basis) == list(parts)
        for mu in parts:
            if mu >= shapes.conjugate(mu):
                continue
            h = SymFun("m", {lam: macdonald._hhl_coefficient(mu, lam) for lam in parts})
            s = h.convert("s").terms
            assert list(basis[mu].terms) == [lam for lam in parts if lam in s]
            assert basis[mu].to_json() == h.convert("s").to_json(), mu


def _count_standard_tableaux(lam):
    """f^lam by the hook length formula."""
    conj = shapes.conjugate(lam)
    hooks = 1
    for i, part in enumerate(lam):
        for j in range(part):
            hooks *= (part - j) + (conj[j] - i) - 1
    return factorial(sum(lam)) // hooks


def test_schur_coefficients_at_q_t_1():
    # H~_mu(x; 1, 1) = h_1^n = sum over lam of f^lam s_lam
    for n in range(1, 7):
        for H in eigenbasis(n).values():
            coeffs = at_qt1(H).terms
            for lam in shapes.partitions_of(n):
                assert coeffs[lam].as_fraction() == _count_standard_tableaux(lam)


def test_diagonal_harmonics_dimension_degree_6():
    assert delta_dim(at_qt1(nabla(e_(6)))).as_fraction() == 7**5


# -- the whole-f route, kept as an oracle for the stored columns ------------


@lru_cache(maxsize=None)
def _eigen_matrix_inverse(n):
    """Inverse of the matrix whose columns are the H~_mu in Schur coordinates."""
    parts = shapes.partitions_of(n)
    basis = eigenbasis(n)
    mat = [[basis[mu].terms.get(lam, QT_ZERO) for mu in parts] for lam in parts]
    return linalg.inverse(mat)


def _expand_by_inverse(f):
    """H~ coordinates of f by the inverse of the H~ matrix."""
    out = {}
    for n, comp in f.convert("s").degree_components().items():
        parts = shapes.partitions_of(n)
        inv = _eigen_matrix_inverse(n)
        vec = [comp.terms.get(lam, QT_ZERO) for lam in parts]
        for i, mu in enumerate(parts):
            c = QT_ZERO
            for j in range(len(parts)):
                if vec[j]:
                    c = c + inv[i][j] * vec[j]
            if c:
                out[mu] = c
    return out


def _nabla_whole(f, power):
    """sum_mu c_mu(f) ev_mu^power H~_mu over the H~ coordinates of all of f."""
    out = SymFun.zero("s")
    for mu, c in _expand_by_inverse(f).items():
        out = out + eigenbasis(sum(mu))[mu].scale(c * nabla_eigenvalue(mu) ** power)
    return out


def _coords_json(coords):
    return {mu: c.to_json() for mu, c in coords.items()}


def test_star_pairing_coordinates_match_inverse_oracle():
    for n in range(7):
        for lam in shapes.partitions_of(n):
            f = s_(lam)
            assert _coords_json(expand_in_eigenbasis(f)) == _coords_json(_expand_by_inverse(f))
    f = s_((3, 1)).scale(QT_ONE / (QT_ONE - QT_Q)) + e_(2).scale(QT_T) + SymFun.one("s")
    assert _coords_json(expand_in_eigenbasis(f)) == _coords_json(_expand_by_inverse(f))


def _star_pairings_by_gram(n):
    """mu -> {lam: <s_lam, H~_mu>_*} for every mu |- n from the Schur Gram
    matrix of the *-scalar product, with no q <-> t swap."""
    parts = shapes.partitions_of(n)
    in_p = {lam: {rho: c.as_fraction() for rho, c in s_(lam).convert("p").terms.items()}
            for lam in parts}
    gram = {}
    for lam in parts:
        for nu in parts:
            g = coeffs.QTPoly()
            for rho, c in in_p[lam].items():
                if rho in in_p[nu]:
                    g = g + macdonald._star_norm_p(rho) * (c * in_p[nu][rho])
            gram[lam, nu] = g
    out = {}
    for mu, H in eigenbasis(n).items():
        row = {}
        for lam in parts:
            g = coeffs.QTPoly()
            for nu, h in H.terms.items():
                g = g + gram[lam, nu] * h.num
            if g:
                row[lam] = g
        out[mu] = row
    return out


def test_star_pairings_match_gram_route():
    # the rows of mu < mu' are the q <-> t swaps of the rows of mu'
    for n in range(7):
        got, want = macdonald._star_pairings(n), _star_pairings_by_gram(n)
        assert list(got) == list(want)
        for mu in want:
            assert [(lam, g.to_json()) for lam, g in got[mu].items()] == \
                [(lam, g.to_json()) for lam, g in want[mu].items()], (n, mu)


def _mixed_seeds():
    """Seeds in every basis, with rational and Laurent coefficients and
    mixed degrees, degree 0 included."""
    q, t, one = QT_Q, QT_T, QT_ONE
    return [
        SymFun("s", {(3, 1): (one + q) / (one - t), (2,): q.inverse() * t**-2,
                     (): QTScalar(Fraction(3, 2))}),
        SymFun("e", {(2, 1): Fraction(1, 3), (1,): q / t, (): one}),
        SymFun("h", {(3,): one - q * t, (1, 1): t.inverse(), (2, 2): Fraction(-2, 5)}),
        SymFun("p", {(2, 2): Fraction(1, 4), (1,): QT_M, (): q**-3}),
        SymFun("m", {(2, 1, 1): q**-2, (2,): one / (one + q)}),
        SymFun("q", {(2, 1): one, (1,): t, (): QTScalar(Fraction(-1, 7))}),
        SymFun.one("e"),
    ]


def test_nabla_columns_match_eigenbasis_route():
    seeds = [s_(lam) for n in range(6) for lam in shapes.partitions_of(n)] + _mixed_seeds()
    for f in seeds:
        for power in range(-2, 3):
            assert nabla(f, power).to_json() == _nabla_whole(f, power).to_json(), (f, power)
    for lam in shapes.partitions_of(6):
        for power in (-1, 1):
            f = s_(lam)
            assert nabla(f, power).to_json() == _nabla_whole(f, power).to_json(), (f, power)


def test_nabla_columns_take_no_gcd(monkeypatch):
    # every gcd in coeffs goes through _cofactors; the columns must not reach it
    for n in range(6):
        eigenbasis(n)
        macdonald._star_pairings(n)

    def no_gcd(*args):
        raise AssertionError("gcd taken while building a nabla column")

    monkeypatch.setattr(macdonald, "_columns", {})
    monkeypatch.setattr(coeffs, "_cofactors", no_gcd)
    for n in range(6):
        for lam in shapes.partitions_of(n):
            for sign in (1, -1):
                macdonald._column(sign, lam)
    assert len(macdonald._columns) == 2 * sum(len(shapes.partitions_of(n)) for n in range(6))


def test_nabla_inverse_round_trip_degree_6():
    for lam in shapes.partitions_of(6):
        assert all(c.is_polynomial() for c in nabla(s_(lam)).terms.values())
        assert nabla(nabla(s_(lam), power=-1)).to_json() == s_(lam).to_json()


def test_nabla_column_store_bounded():
    parts = shapes.partitions_of(4)
    for lam in parts:
        nabla(s_(lam))
        nabla(s_(lam), power=-1)
    stored = len(macdonald._columns)
    assert sum(1 for _, lam in macdonald._columns if sum(lam) == 4) == 2 * len(parts)
    seeds = [SymFun(basis, {lam: QT_ONE + QT_Q * k + QT_T * j})
             for k, lam in enumerate(parts) for j, basis in enumerate("ehpm")]
    assert len({f.key() for f in seeds}) == 20
    for f in seeds:
        nabla(f, power=3)
        nabla(f, power=-3)
    assert len(macdonald._columns) == stored
