"""The verification harness: predicates, formulas, verdict plumbing."""

import json
from fractions import Fraction

import pytest

from ehall import checks, symfun
from ehall.checks import (
    Verdict,
    at_qt1,
    at_t1,
    at_t1r,
    delta_dim,
    delta_formula,
    eps_dim,
    eps_formula,
    exit_code,
    is_e_positive,
    is_schur_positive,
    report_json,
    run_check,
    shift_alpha,
    shift_alpha_prime,
    shift_beta,
)
from ehall.coeffs import QT_ONE, QT_Q, QT_T, QTScalar
from ehall.symfun import SymFun, e_, h_, mul, s_


def test_positivity_predicates():
    good = s_((2,)).scale(QT_Q + QT_T) + s_((1, 1))
    assert is_schur_positive(good).status == "holds"
    bad = s_((2,)) - s_((1, 1)).scale(QT_Q)
    v = is_schur_positive(bad)
    assert v.status == "fails" and v.witness is not None
    frac = s_((2,)).scale(QTScalar(Fraction(1, 2)))
    assert is_schur_positive(frac).status == "fails"
    pole = s_((2,)).scale(QT_ONE / (QT_ONE - QT_T))
    assert is_schur_positive(pole).status == "fails"
    assert is_e_positive(e_(2).scale(QT_Q)).status == "holds"
    assert is_e_positive(s_((2,))).status == "fails"  # e_2 coefficient is -1


def test_shift_exponents():
    # alpha(m,n): cells between consecutive staircases
    assert shift_alpha(2, 2) == 1
    assert shift_alpha(3, 3) == 2  # staircases 001 -> 012
    assert shift_alpha_prime(3, 3) == 2
    assert shift_beta(2, 2) == 0
    assert shift_beta(3, 2) == shift_alpha(3, 2)  # coprime: d = 1
    with pytest.raises(ValueError):
        shift_alpha(1, 3)


def test_dimension_functionals():
    # <p_1^n, h_1^n> = n!, <e_n, e_1^n> = 1 coefficient bookkeeping
    f = mul(symfun.p_(1), symfun.p_(1))
    assert delta_dim(f).as_fraction() == 2
    assert eps_dim(e_(3)).as_fraction() == 1  # <e_3, e_3> = <s_111, s_111>
    assert eps_dim(h_(3)).as_fraction() == 0  # <e_3, h_3> = <s_111, s_3>
    with pytest.raises(ValueError):
        delta_dim(e_(1) + e_(2))


def test_formulas_small_cases():
    assert delta_formula(1, 1, (1,)) == 1
    assert delta_formula(1, 1, (2,)) == 4
    assert delta_formula(1, 1, (1, 1)) == 2
    assert eps_formula(1, 1, (1,)) == 1
    assert eps_formula(1, 1, (2,)) == 3
    assert eps_formula(2, 3, (1,)) == 2


def test_specializations():
    f = s_((1,)).scale(QT_T * QT_T)
    assert at_t1(f) == s_((1,))
    assert at_qt1(f) == s_((1,))
    # t -> 1 + r: the r variable is carried in the t slot
    g = at_t1r(f)
    assert g.terms[(1,)] == (QT_ONE + QT_T) ** 2


def test_verdict_json_and_exit_code():
    v = Verdict("demo", {"mu": (2, 1)}, "holds", runtime_millis=5)
    data = v.to_json()
    assert data["params"]["mu"] == [2, 1] and data["status"] == "holds"
    bad = Verdict("demo", {}, "fails", witness=((2,), "-1"))
    rep = json.loads(report_json([v, bad]))
    assert len(rep) == 2 and rep[1]["witness"]["mu"] == [2]
    assert exit_code([v]) == 0
    assert exit_code([v, bad]) == 2
    reported = Verdict("demo", {}, "reported")
    assert exit_code([v, reported]) == 0


def test_run_check_unknown_name():
    with pytest.raises(ValueError):
        run_check("no-such-check")


def test_non_conjectural_checks_hold():
    for name in sorted(checks.NON_CONJECTURAL):
        verdicts = run_check(name, limit=3)
        assert verdicts, name
        assert all(v.status == "holds" for v in verdicts), name


def test_conjectural_checks_report_no_anomalies():
    for name in ["schur-seed", "incl-e", "epos-h", "t1-mult", "retours"]:
        verdicts = run_check(name, limit=3)
        assert verdicts, name
        for v in verdicts:
            assert v.status == "reported", (name, v)
            assert v.outcome in ("holds", "equal"), (name, v)


def test_verdict_outcome():
    # derived from the fields and kept off the wire
    minus = SymFun("s", {(1,): -QT_ONE})
    cases = [
        (is_schur_positive(s_((2,))), "holds"),
        (is_schur_positive(minus), "counterexample"),
        (checks._conjectural(is_schur_positive(s_((2,)))), "holds"),
        (checks._conjectural(is_schur_positive(minus)), "counterexample"),
        (checks._equality("t1-mult", {}, True), "equal"),
        (checks._equality("t1-mult", {}, False), "not-equal"),
    ]
    for v, want in cases:
        assert v.outcome == want, v
        assert "outcome" not in v.to_json()
    found = {name: {v.outcome for v in run_check(name, limit=2)}
             for name in ["schur-seed", "incl-eh-bar", "retours", "dim-delta"]}
    assert found == {"schur-seed": {"holds"}, "incl-eh-bar": {"reported"},
                     "retours": {"equal"}, "dim-delta": {"holds"}}
