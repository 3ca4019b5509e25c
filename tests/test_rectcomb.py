"""Rectangular Dyck paths, parking functions, and enumerators."""

import copy
import dataclasses
import pickle
from collections import Counter
from itertools import permutations
from math import comb, gcd

import pytest

from ehall import rectcomb, shapes
from ehall.checks import at_qt1
from ehall.coeffs import QT_ONE, QTScalar
from ehall.rectcomb import (
    DyckPath,
    ParkingFun,
    area,
    bizley,
    descent_comp,
    enumerate_paths,
    parking,
    path_enumerator,
    primitive_enumerator,
    riser_comp,
    staircase,
)


def rank(x: int, y: int, m: int, n: int) -> int:
    """Rank nm - ym - xn of the cell (x, y) in the m x n rectangle."""
    return n * m - y * m - x * n


def return_positions(p: DyckPath):
    """Interior positions k > 1 where the path touches the diagonal."""
    return [k for k, a in enumerate(p.word, start=1) if k > 1 and p.n * a == (k - 1) * p.m]


def returns_comp(p: DyckPath):
    """Composition of d = gcd(m,n) encoding where the path returns."""
    d = gcd(p.m, p.n)
    b = p.n // d
    subset = {(k - 1) // b for k in return_positions(p)}
    return shapes.subset_to_composition(d, subset)


def is_primitive(p: DyckPath) -> bool:
    """A path with no interior return to the diagonal."""
    return not return_positions(p)


def paths_by_filter(m: int, n: int, returns_at=None):
    """Oracle: every odometer word under the staircase through the validating
    DyckPath, kept if its return composition is returns_at."""
    ceilings = [(k - 1) * m // n for k in range(1, n + 1)]
    word = [0] * n
    out = []
    while True:
        p = DyckPath(m, n, tuple(word))
        if returns_at is None or returns_comp(p) == returns_at:
            out.append(p)
        k = n - 1
        while k >= 0 and word[k] >= ceilings[k]:
            k -= 1
        if k < 0:
            return out
        word[k] += 1
        for j in range(k + 1, n):
            word[j] = word[k]


def parking_by_filter(p: DyckPath):
    """Oracle: every permutation of 1..n, kept if labels rise up each column."""
    out = []
    for perm in permutations(range(1, p.n + 1)):
        ok = all(
            not (p.word[k] == p.word[k - 1] and perm[k] < perm[k - 1])
            for k in range(1, p.n)
        )
        if ok:
            out.append(ParkingFun(p, perm))
    return out


def cells(pf: ParkingFun):
    """cell of label i: (x, y) where the step labeled i starts."""
    out = [None] * pf.path.n
    for k, lab in enumerate(pf.labels):
        out[lab - 1] = (pf.path.word[k], k)
    return out


def descent_comp_by_cells(pf: ParkingFun):
    """Oracle: descent composition from the cells, two ranks per pair."""
    m, n = pf.path.m, pf.path.n
    c = cells(pf)
    des = set()
    for i in range(1, n):
        x1, y1 = c[i - 1]
        x2, y2 = c[i]
        if rank(x1, y1, m, n) >= rank(x2, y2, m, n):
            des.add(i)
    return shapes.subset_to_composition(n, des)


def _words(m, n):
    return {"".join(map(str, p.word)) for p in enumerate_paths(m, n)}


def test_dyck_5_4_golden():
    want = {"0000", "0001", "0002", "0003", "0011", "0012", "0013",
            "0022", "0023", "0111", "0112", "0113", "0122", "0123"}
    assert _words(5, 4) == want


def test_staircase_table_n4():
    want = {1: "0000", 2: "0011", 3: "0012", 4: "0123",
            5: "0123", 6: "0134", 7: "0135", 8: "0246",
            9: "0246", 10: "0257", 11: "0258", 12: "0369"}
    for m, w in want.items():
        assert "".join(map(str, staircase(m, 4).word)) == w


def test_area_multiset_3_3():
    areas = sorted(area(p) for p in enumerate_paths(3, 3))
    assert areas == [0, 1, 1, 2, 3]


def test_rank_golden():
    assert rank(0, 0, 7, 5) == 35


def test_coprime_count_formula():
    for m, n in [(3, 2), (5, 4), (4, 3), (7, 2), (5, 3)]:
        assert gcd(m, n) == 1
        assert len(enumerate_paths(m, n)) == comb(m + n, n) // (m + n)


def test_kn_shift_invariance():
    # Dyck(kn, n) = Dyck(kn+1, n) as word sets
    assert _words(4, 4) == _words(5, 4)
    assert _words(6, 3) == _words(7, 3)


def test_path_validation():
    with pytest.raises(ValueError):
        DyckPath(3, 3, (0, 2, 2))  # crosses the diagonal
    with pytest.raises(ValueError):
        DyckPath(3, 3, (1, 0, 0))  # not weakly increasing


def test_riser_and_returns():
    p = DyckPath(4, 4, (0, 0, 1, 3))
    assert riser_comp(p) == (2, 1, 1)
    assert area(p) == 2
    s = staircase(4, 4)
    assert returns_comp(s) == (1, 1, 1, 1)
    assert is_primitive(DyckPath(4, 4, (0, 0, 0, 0)))


def test_returns_filter():
    # paths with full-return composition (1,...,1) stay on the staircase
    d = 3
    sel = enumerate_paths(3, 3, returns_at=(1, 1, 1))
    assert [p.word for p in sel] == [(0, 1, 2)]
    total = sum(len(enumerate_paths(3, 3, returns_at=a))
                for a in shapes.compositions_of(d))
    assert total == len(enumerate_paths(3, 3))


@pytest.mark.parametrize("alpha", [(2, 2), (0, 3), (-1, 4), (1,), (4,), ()])
def test_returns_must_be_a_composition_of_gcd(alpha):
    with pytest.raises(ValueError):
        enumerate_paths(3, 3, returns_at=alpha)
    with pytest.raises(ValueError):
        path_enumerator(3, 3, returns_at=alpha)


def test_paths_match_the_filtering_oracle():
    # the same paths in the same order as validating every odometer word and
    # filtering by returns, for every composition of gcd(m, n)
    pairs = [(m, n) for m in range(1, 8) for n in range(1, 7)] + [(8, 6), (9, 6), (6, 9)]
    for m, n in pairs:
        assert enumerate_paths(m, n) == paths_by_filter(m, n), (m, n)
        for alpha in shapes.compositions_of(gcd(m, n)):
            got = enumerate_paths(m, n, returns_at=alpha)
            assert got == paths_by_filter(m, n, alpha), (m, n, alpha)
            assert all(returns_comp(p) == alpha for p in got)


def test_generated_objects_pass_the_validating_constructors():
    # the validating constructor builds the same record as parking: the
    # same word() and descents, and the same (path, labels) value
    for m in range(1, 8):
        for n in range(1, 7):
            for p in enumerate_paths(m, n):
                assert type(p.word) is tuple and DyckPath(m, n, p.word) == p
                for pf in parking(p):
                    built = ParkingFun(p, pf.labels)
                    assert type(pf.labels) is tuple and built == pf
                    assert hash(built) == hash(pf) and repr(built) == repr(pf)
                    assert built.word() == pf.word()
                    assert descent_comp(built) == descent_comp(pf)
    assert [f.name for f in dataclasses.fields(ParkingFun)] == ["path", "labels"]


def test_parking_fun_copies_keep_the_record():
    pf = parking(DyckPath(5, 3, (0, 1, 3)))[4]
    for twin in (copy.copy(pf), copy.deepcopy(pf), pickle.loads(pickle.dumps(pf)),
                 dataclasses.replace(pf)):
        assert twin == pf and twin.word() == pf.word() == (1, 3, 0)
        assert descent_comp(twin) == descent_comp(pf) == (1, 2)


def test_parking_fun_labels_are_a_tuple():
    pf = ParkingFun(DyckPath(3, 2, (0, 1)), [2, 1])
    assert pf.labels == (2, 1) and pf.word() == (1, 0) and descent_comp(pf) == (2,)


def test_parking_functions():
    # coprime (m,n): total number of parking functions is m^(n-1)
    for m, n in [(3, 2), (4, 3), (5, 2)]:
        total = sum(len(parking(p)) for p in enumerate_paths(m, n))
        assert total == m ** (n - 1)


def test_parking_validation_and_word():
    p = DyckPath(3, 2, (0, 1))
    fns = parking(p)
    assert len(fns) == 2
    with pytest.raises(ValueError):
        ParkingFun(DyckPath(3, 2, (0, 0)), (2, 1))
    pf = ParkingFun(p, (2, 1))
    assert pf.word() == (1, 0)
    assert cells(pf) == [(1, 1), (0, 0)]


def test_descent_comp():
    # rank(x, y) = nm - ym - xn of the cell (word[k], k) under each label
    got = {pf.labels: descent_comp(pf) for pf in parking(staircase(2, 2))}
    assert got == {(1, 2): (1, 1), (2, 1): (2,)}
    got = {pf.labels: descent_comp(pf) for pf in parking(DyckPath(3, 2, (0, 1)))}
    assert got == {(1, 2): (1, 1), (2, 1): (2,)}
    got = {pf.labels: descent_comp(pf) for pf in parking(DyckPath(3, 3, (0, 0, 1)))}
    assert got == {(1, 2, 3): (1, 1, 1), (1, 3, 2): (1, 2), (2, 3, 1): (2, 1)}
    got = {pf.labels: descent_comp(pf) for pf in parking(DyckPath(5, 3, (0, 1, 3)))}
    assert got == {(1, 2, 3): (1, 1, 1), (1, 3, 2): (1, 2), (2, 1, 3): (2, 1),
                   (2, 3, 1): (2, 1), (3, 1, 2): (1, 2), (3, 2, 1): (3,)}


def test_parking_and_descents_match_oracles():
    # same parking functions in the same order, with the same descents
    for m in range(1, 8):
        for n in range(1, 7):
            for p in enumerate_paths(m, n):
                got = [(pf.word(), pf.labels, descent_comp(pf)) for pf in parking(p)]
                want = [(tuple(x for x, _ in cells(pf)), pf.labels, descent_comp_by_cells(pf))
                        for pf in parking_by_filter(p)]
                assert got == want, p


def test_enumerator_against_paths():
    # words 00 (risers (2), area 1) and 01 (risers (1,1), area 0)
    f = path_enumerator(3, 2)
    assert f == rectcomb.SymFun(
        "e", {(2,): QTScalar.qt_monomial(1, 1, 0), (1, 1): QT_ONE})


def test_path_enumerator_sums_over_the_paths():
    # sum of q^area e_(risers) over the DyckPaths, with the risers counted
    # from the word here, for every returns_at composition of gcd(m, n)
    for m in range(1, 9):
        for n in range(1, 9):
            for alpha in [None, *shapes.compositions_of(gcd(m, n))]:
                terms = {}
                for p in enumerate_paths(m, n, alpha):
                    rho = tuple(sorted(Counter(p.word).values(), reverse=True))
                    terms[rho] = terms.get(rho, 0) + QTScalar.qt_monomial(1, area(p), 0)
                want = rectcomb.SymFun("e", terms)
                got = path_enumerator(m, n, alpha)
                assert got.to_json() == want.to_json(), (m, n, alpha)


def test_primitive_enumerator_consistency():
    for m, n in [(2, 2), (4, 2), (3, 3)]:
        prim = primitive_enumerator(m, n)
        allp = path_enumerator(m, n)
        # primitive paths are a subset: coefficientwise dominated
        diff = allp - prim
        for c in diff.convert("e").terms.values():
            assert all(x >= 0 for x in c.num.terms.values())


def test_bizley_matches_path_count():
    for a, b, d in [(1, 1, 2), (1, 1, 3), (1, 2, 2), (2, 1, 2), (3, 2, 1)]:
        # both in the e basis: the same wire form, not only the same value
        assert bizley(a, b, d).to_json() == at_qt1(path_enumerator(a * d, b * d)).to_json()
