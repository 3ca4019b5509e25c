"""Acceptance gate: one test per release criterion, each printing a
pass/fail line (bypassing capture so the line is visible in any run mode).
"""

import io
import json
import subprocess
import sys
import time
from contextlib import redirect_stdout
from fractions import Fraction
from math import gcd
from pathlib import Path

from ehall import checks, cli, shapes, symfun
from ehall.checks import at_qt1, at_t1, delta_dim, delta_formula, eps_dim, eps_formula
from ehall.coeffs import QT_ONE, QTPoly, QTScalar
from ehall.ctengine import ct_t1
from ehall.ehallops import bracket_word, theta
from ehall.macdonald import nabla
from ehall.rectcomb import (
    DyckPath,
    area,
    bizley,
    enumerate_paths,
    path_enumerator,
    staircase,
)
from ehall.symfun import SymFun, e_, h_, m_, q_d, s_
from test_rectcomb import rank

REPO = Path(__file__).resolve().parent.parent


def criterion(num, label):
    def deco(fn):
        def wrapper(capsys):
            t0 = time.monotonic()
            try:
                fn()
            except BaseException:
                with capsys.disabled():
                    print(f"criterion {num} ({label}): FAIL", flush=True)
                raise
            dt = time.monotonic() - t0
            with capsys.disabled():
                print(f"criterion {num} ({label}): PASS [{dt:.1f}s]", flush=True)
        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        return wrapper
    return deco


def P(d):
    return QTScalar(QTPoly(d))


def _cli_symfun(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = cli.main(argv)
    assert rc == 0, argv
    return SymFun.from_json(json.loads(buf.getvalue()))


@criterion(1, "theta Schur tables")
def test_criterion_1():
    s3_expected = SymFun("s", {
        (2, 2, 2): P({(1, 0): 1, (0, 1): 1}),
        (3, 2, 1): QT_ONE,
        (2, 2, 1, 1): P({(2, 0): 1, (1, 1): 1, (0, 2): 1, (1, 0): 1, (0, 1): 1}),
        (3, 1, 1, 1): P({(1, 0): 1, (0, 1): 1}),
        (2, 1, 1, 1, 1): P({(1, 0): 1, (0, 1): 1})
        * P({(2, 0): 1, (0, 2): 1, (1, 0): 1, (0, 1): 1}),
        (1,) * 6: P({(4, 0): 1, (3, 1): 1, (2, 2): 1, (1, 3): 1, (0, 4): 1,
                     (2, 1): 1, (1, 2): 1}),
    })
    got = _cli_symfun(["theta", "--seed", "(-qt)^-2*s[3]", "--ab", "1,2",
                       "--basis", "s", "--no-cache"])
    assert got == s3_expected
    assert got.convert("s").terms[(3, 2, 1)] == QT_ONE

    s21_expected = SymFun("s", {
        (2, 2, 2): P({(2, 0): 1, (1, 1): 1, (0, 2): 1}),
        (2, 2, 1, 1): P({(1, 0): 1, (0, 1): 1})
        * P({(2, 0): 1, (0, 2): 1, (1, 0): 1, (0, 1): 1}),
        (3, 2, 1): P({(1, 0): 1, (0, 1): 1}),
        (3, 1, 1, 1): P({(2, 0): 1, (1, 1): 1, (0, 2): 1}),
        (2, 1, 1, 1, 1): P({(4, 0): 1, (3, 1): 1, (2, 2): 1, (1, 3): 1, (0, 4): 1,
                            (3, 0): 1, (2, 1): 2, (1, 2): 2, (0, 3): 1}),
        (1,) * 6: P({(2, 0): 1, (1, 1): 1, (0, 2): 1})
        * P({(3, 0): 1, (0, 3): 1, (1, 1): 1}),
    })
    got = _cli_symfun(["theta", "--seed", "(-qt)^-1*s[21]", "--ab", "1,2",
                       "--basis", "s", "--no-cache"])
    assert got == s21_expected
    # spot value called out explicitly: s_222 coefficient q^2 + qt + t^2
    assert got.convert("s").terms[(2, 2, 2)] == P({(2, 0): 1, (1, 1): 1, (0, 2): 1})


@criterion(2, "monomial seed table")
def test_criterion_2():
    expected = SymFun("s", {
        (3,): P({(0, 0): 2}),
        (2, 1): P({(2, 1): 1, (1, 2): 1, (2, 0): 2, (1, 1): 2, (0, 2): 2,
                   (1, 0): 2, (0, 1): 2}),
        (1, 1, 1): P({(3, 1): 1, (2, 2): 1, (1, 3): 1, (3, 0): 2, (2, 1): 2,
                      (1, 2): 2, (0, 3): 2, (1, 1): 2}),
    })
    got = theta(1, 1, m_((2, 1)).scale(QTScalar(-1))).convert("s")
    assert got == expected
    assert got.terms[(3,)] == QTScalar(2)


@criterion(3, "bracket-word goldens")
def test_criterion_3():
    assert bracket_word(4, 3) == "[[e1,D0],[[e1,D0],[[e1,D0],D0]]]"
    assert bracket_word(6, 3) == "[[e1,D0],[[[e1,D0],D0],[[[e1,D0],D0],D0]]]"


@criterion(4, "t=1 e-positivity tables")
def test_criterion_4():
    q = lambda e: {(e, 0): 1}
    e2_13 = SymFun("e", {(6,): P(q(3)), (5, 1): P(q(2)), (4, 2): P(q(1)),
                         (3, 3): QT_ONE})
    assert at_t1(theta(1, 3, e_(2))).convert("e") == e2_13

    e3_12 = SymFun("e", {
        (6,): P(q(6)), (5, 1): P({(5, 0): 1, (4, 0): 1}),
        (4, 2): P({(4, 0): 1, (2, 0): 2}), (4, 1, 1): P(q(3)), (3, 3): P(q(3)),
        (3, 2, 1): P({(2, 0): 1, (1, 0): 2}), (2, 2, 2): QT_ONE})
    assert at_t1(theta(1, 2, e_(3))).convert("e") == e3_12

    e2_23 = SymFun("e", {
        (6,): P(q(8)), (5, 1): P({(7, 0): 1, (6, 0): 1, (5, 0): 1}),
        (4, 2): P({(6, 0): 1, (4, 0): 2}),
        (4, 1, 1): P({(5, 0): 1, (4, 0): 1, (3, 0): 1}),
        (3, 3): P({(5, 0): 1, (2, 0): 1}),
        (3, 2, 1): P({(4, 0): 1, (3, 0): 3, (2, 0): 1, (1, 0): 2}),
        (3, 1, 1, 1): P(q(2)), (2, 2, 2): P(q(2)),
        (2, 2, 1, 1): P({(1, 0): 1, (0, 0): 1})})
    assert at_t1(theta(2, 3, e_(2))).convert("e") == e2_23


@criterion(5, "combinatorics goldens")
def test_criterion_5():
    words = {"".join(map(str, p.word)) for p in enumerate_paths(5, 4)}
    assert words == {"0000", "0001", "0002", "0003", "0011", "0012", "0013",
                     "0022", "0023", "0111", "0112", "0113", "0122", "0123"}
    table = {1: "0000", 2: "0011", 3: "0012", 4: "0123", 5: "0123", 6: "0134",
             7: "0135", 8: "0246", 9: "0246", 10: "0257", 11: "0258", 12: "0369"}
    for m, w in table.items():
        assert "".join(map(str, staircase(m, 4).word)) == w
    assert sorted(area(p) for p in enumerate_paths(3, 3)) == [0, 1, 1, 2, 3]
    assert rank(0, 0, 7, 5) == 35


@criterion(6, "oracle equivalences")
def test_criterion_6():
    for m in range(2, 7):
        for n in range(2, 7):
            assert ct_t1(m, n) == path_enumerator(m, n), (m, n)
    for a, b, d in [(1, 1, 2), (1, 1, 3), (1, 2, 2), (2, 1, 2)]:
        assert bizley(a, b, d) == at_qt1(path_enumerator(a * d, b * d)), (a, b, d)


@criterion(7, "nabla consistency")
def test_criterion_7():
    for d in range(1, 6):
        assert theta(1, 1, e_(d)) == nabla(e_(d)), ("e", d)
        assert theta(1, 1, h_(d)) == nabla(h_(d)), ("h", d)
        for mu in shapes.partitions_of(d):
            assert theta(1, 1, s_(mu)) == nabla(s_(mu)), ("s", mu)
    for n in range(1, 6):
        val = delta_dim(at_qt1(nabla(e_(n)))).as_fraction()
        assert val == (n + 1) ** (n - 1), n


@criterion(8, "dimension formulas")
def test_criterion_8():
    for d in range(1, 7):
        for mu in shapes.partitions_of(d):
            for a in range(1, 6 // d + 1):
                for b in range(1, 6 // d + 1):
                    if gcd(a, b) != 1:
                        continue
                    f = checks.q_mu_ab_at_11(a, b, mu)
                    assert delta_dim(f).as_fraction() == delta_formula(a, b, mu), \
                        ("delta", a, b, mu)
                    assert eps_dim(f).as_fraction() == eps_formula(a, b, mu), \
                        ("eps", a, b, mu)


@criterion(9, "conjecture sweep")
def test_criterion_9():
    verdicts = checks.run_check("schur-seed", limit=6)
    verdicts += checks.run_check("monomial-seed", limit=6)
    assert len(verdicts) >= 2 * 69
    anomalies = [v for v in verdicts if v.outcome != "holds"]
    report_dir = REPO / "reports"
    report_dir.mkdir(exist_ok=True)
    (report_dir / "conjecture-sweep.json").write_text(checks.report_json(verdicts))
    assert not anomalies, anomalies[:3]


@criterion(10, "property suites")
def test_criterion_10():
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "--ignore",
         str(REPO / "tests" / "test_acceptance.py"), str(REPO / "tests")],
        capture_output=True, text=True, cwd=REPO)
    assert result.returncode == 0, result.stdout[-2000:] + result.stderr[-2000:]
