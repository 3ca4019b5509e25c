"""Partitions, compositions, and their statistics."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ehall import shapes

partitions = st.integers(min_value=0, max_value=7).flatmap(
    lambda d: st.sampled_from(shapes.partitions_of(d))
)


def test_partition_counts():
    # number of partitions of 0..9
    want = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30]
    assert [len(shapes.partitions_of(d)) for d in range(10)] == want


def test_composition_counts():
    assert [len(shapes.compositions_of(d)) for d in range(1, 7)] == [1, 2, 4, 8, 16, 32]


@settings(max_examples=50, deadline=None, derandomize=True)
@given(partitions)
def test_conjugate_involution(mu):
    nu = shapes.conjugate(mu)
    assert shapes.is_partition(nu)
    assert shapes.conjugate(nu) == mu
    assert sum(nu) == sum(mu)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(partitions)
def test_n_stat_conjugate(mu):
    # n(mu) = sum over cells of (row index - 1) = sum binom(mu'_j, 2)
    assert shapes.n_stat(mu) == sum(math.comb(c, 2) for c in shapes.conjugate(mu))


def test_z_stat():
    assert shapes.z_stat(()) == 1
    assert shapes.z_stat((1, 1, 1)) == 6
    assert shapes.z_stat((2, 1)) == 2
    assert shapes.z_stat((3, 3, 2)) == 36


def test_z_stat_orthogonality_sum():
    # sum over mu of 1/z_mu has a known closed form: 1 at every degree
    # (coefficient extraction from exp(sum p_k/k) with all p_k = 1)
    from fractions import Fraction

    for d in range(1, 8):
        assert sum(Fraction(1, shapes.z_stat(mu)) for mu in shapes.partitions_of(d)) == 1


def test_iota_and_hooks():
    assert shapes.iota((3,)) == 2
    assert shapes.iota((2, 1)) == 1
    assert shapes.iota((1, 1, 1)) == 0
    assert shapes.hook(0, 2) == (1, 1, 1)
    assert shapes.hook(2, 0) == (3,)
    assert shapes.hook(1, 1) == (2, 1)
    assert shapes.iota(shapes.hook(2, 1)) == 2


def test_bar_removes_first_column():
    assert shapes.bar((3, 2, 1)) == (2, 1)
    assert shapes.bar((1, 1)) == ()
    assert shapes.bar(()) == ()


def composition_to_subset(alpha):
    """Partial-sum set S(alpha) in {1,...,d-1} for alpha a composition of d."""
    s, out = 0, set()
    for c in alpha[:-1]:
        s += c
        out.add(s)
    return frozenset(out)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(min_value=1, max_value=6), st.data())
def test_composition_subset_bijection(d, data):
    alpha = data.draw(st.sampled_from(shapes.compositions_of(d)))
    S = composition_to_subset(alpha)
    assert shapes.subset_to_composition(d, S) == alpha
    assert all(1 <= s < d for s in S)


def test_check_partition_rejects():
    with pytest.raises(ValueError):
        shapes.check_partition((1, 2))
    with pytest.raises(ValueError):
        shapes.check_partition((2, 0))
