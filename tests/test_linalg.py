"""Exact linear algebra over Fraction and QTScalar entries."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from ehall import linalg
from ehall.coeffs import QT_Q, QT_T, QT_ZERO

entries = st.fractions(
    min_value=-5, max_value=5, max_denominator=4
)


def _mat(data):
    return [list(row) for row in data]


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)
))
def test_inverse_round_trip(rows):
    n = len(rows)
    try:
        inv = linalg.inverse(_mat(rows))
    except ValueError:
        return  # singular
    for i in range(n):
        for j in range(n):
            s = sum(rows[i][k] * inv[k][j] for k in range(n))
            assert s == (1 if i == j else 0)


def test_nullspace():
    mat = [[Fraction(1), Fraction(2), Fraction(3)],
           [Fraction(2), Fraction(4), Fraction(6)]]
    basis = linalg.nullspace(mat)
    assert len(basis) == 2
    for vec in basis:
        for row in mat:
            assert sum(r * v for r, v in zip(row, vec)) == 0


def test_nullspace_qt():
    mat = [[QT_Q - QT_Q, QT_ZERO], [QT_ZERO, QT_T]]
    basis = linalg.nullspace(mat)
    assert len(basis) == 1
    assert basis[0][1] == QT_ZERO and basis[0][0] != QT_ZERO
