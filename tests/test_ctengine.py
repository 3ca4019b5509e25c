"""The t = 1 constant-term walk against the direct path enumerators."""

from math import gcd

import pytest

from ehall.coeffs import QTScalar
from ehall.ctengine import ct_t1
from ehall.rectcomb import path_enumerator, primitive_enumerator
from ehall.symfun import SymFun


def ct_t1_by_scalar_sums(m, n, primitive=False):
    """Oracle: the same walk, adding one QTScalar q-monomial per leaf."""
    b = [i * n // m - (i - 1) * n // m for i in range(1, m + 1)]
    d = gcd(m, n)
    forced = {j * m // d for j in range(1, d)} if primitive else set()
    out = {}

    def walk(i, carry, qexp, ks):
        if i == m:
            k = b[i - 1] + carry
            if k < 0:
                return
            rho = tuple(x for x in sorted(ks + [k], reverse=True) if x)
            c = QTScalar.qt_monomial(1, qexp, 0)
            out[rho] = out[rho] + c if rho in out else c
            return
        top = b[i - 1] + carry
        for ci in range(1 if i in forced else 0, max(top, -1) + 1):
            if top - ci >= 0:
                walk(i + 1, ci, qexp + ci, ks + [top - ci])

    walk(1, 0, 0, [])
    return SymFun("e", out)


def test_matches_path_enumerator():
    for m in range(1, 6):
        for n in range(1, 6):
            assert ct_t1(m, n) == path_enumerator(m, n), (m, n)


def test_primitive_variant():
    for m in range(1, 5):
        for n in range(1, 5):
            assert ct_t1(m, n, primitive=True) == primitive_enumerator(m, n), (m, n)


@pytest.mark.parametrize("primitive", [False, True])
def test_integer_counts_match_scalar_sums(primitive):
    for m in range(1, 8):
        for n in range(1, 8):
            want = ct_t1_by_scalar_sums(m, n, primitive).to_json()
            assert ct_t1(m, n, primitive).to_json() == want, (m, n)


def test_matches_operator_specialization():
    # cross-check against the exact operators specialized at t = 1
    from ehall.checks import at_t1
    from ehall.ehallops import theta
    from ehall.symfun import e_

    for m in range(1, 5):
        for n in range(1, 5):
            d = gcd(m, n)
            f = at_t1(theta(m // d, n // d, e_(d)))
            assert ct_t1(m, n) == f, (m, n)


def test_rejects_bad_input():
    with pytest.raises(ValueError):
        ct_t1(0, 3)
