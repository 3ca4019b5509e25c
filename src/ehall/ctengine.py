"""Constant-term evaluation of the t = 1 operator formula.

Theta_(a,b)(e_d)(1) at t = 1 equals the constant term in z_1, ..., z_m of

    (1/z_(m,n)) * prod_(i=1)^(m-1) 1/(1 - q z_i/z_(i+1)) * prod_(i=1)^m Omega'[x; z_i]

with (m,n) = (ad,bd), z_(m,n) = prod_i z_i^(b_i), b_i = floor(in/m) -
floor((i-1)n/m), and Omega'[x;z] = sum_k e_k z^k.  The geometric factors
are expanded in powers of z_i/z_(i+1) (each with weight q); that
orientation is the one calibrated against the exact operator machinery
and the Dyck-path enumerators.

Extracting the constant term variable by variable turns the whole
computation into a short walk: carrying c_i for the exponent borrowed
from the geometric factor between z_i and z_(i+1), the z_i balance reads
k_i = b_i + c_(i-1) - c_i >= 0 with c_0 = c_m = 0, total weight
q^(c_1 + ... + c_(m-1)) and contribution e_(k_1) ... e_(k_m).
"""

from __future__ import annotations

from collections import Counter
from math import gcd

from .symfun import SymFun, e_q_counts


def ct_t1(m: int, n: int, primitive: bool = False) -> SymFun:
    """The constant term above, as an e-basis SymFun with N[q] coefficients.

    With primitive=True, the walk is restricted to carries c_i >= 1 at the
    d-1 interior diagonal columns i = j*m/d (j = 1..d-1, d = gcd(m,n)):
    in this orientation a zero carry at such a column is exactly an
    interior return, so the restriction enumerates primitive paths.

    Each leaf of the walk is one q-monomial; the leaves are counted as
    integers per (partition, q-exponent) and each coefficient is built
    once at the end.
    """
    if m < 1 or n < 1:
        raise ValueError("m, n must be positive")
    b = [i * n // m - (i - 1) * n // m for i in range(1, m + 1)]
    d = gcd(m, n)
    forced = {j * m // d for j in range(1, d)} if primitive else set()
    counts = Counter()  # (partition, q-exponent) -> number of leaves

    def walk(i, carry, qexp, ks):
        if i == m:
            k = b[i - 1] + carry  # c_m = 0
            if k < 0:
                return
            rho = tuple(x for x in sorted(ks + [k], reverse=True) if x)
            counts[rho, qexp] += 1
            return
        top = b[i - 1] + carry  # c_i <= b_i + c_(i-1) keeps k_i >= 0
        low = 1 if i in forced else 0
        for ci in range(low, max(top, -1) + 1):
            k = top - ci
            if k < 0:
                continue
            walk(i + 1, ci, qexp + ci, ks + [k])

    walk(1, 0, 0, [])
    return e_q_counts(counts)
