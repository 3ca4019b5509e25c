"""Modified Macdonald eigenbasis and the nabla eigenoperator."""

from math import factorial

from ehall import linalg, shapes, symfun
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
