"""Command-line interface: expression grammar, subcommands, cache, exit codes."""

import contextlib
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ehall import cli
from ehall.coeffs import QT_ONE, QT_Q, QT_T, QTScalar
from ehall.symfun import SymFun, e_, h_, mul, p_, q_d, s_


# -- expression grammar ------------------------------------------------


def test_parse_generators():
    assert cli.parse_expr("e[2]") == e_(2)
    assert cli.parse_expr("h[3]") == h_(3)
    assert cli.parse_expr("p[2]") == p_(2)
    assert cli.parse_expr("s[21]") == s_((2, 1))
    assert cli.parse_expr("s[2,1]") == s_((2, 1))
    assert cli.parse_expr("q[2]") == q_d(2)
    assert cli.parse_expr("s[2,1,1]") == s_((2, 1, 1))


def test_parse_arithmetic():
    assert cli.parse_expr("e[1]*e[1]") == mul(e_(1), e_(1))
    assert cli.parse_expr("e[2]+h[2]") == e_(2) + h_(2)
    assert cli.parse_expr("2*p[1]") == p_(1).scale(QTScalar(2))
    assert cli.parse_expr("(q+t)*s[1]") == s_((1,)).scale(QT_Q + QT_T)
    assert cli.parse_expr("e[1]^3") == mul(mul(e_(1), e_(1)), e_(1))
    assert cli.parse_expr("-e[2]") == -e_(2)
    assert cli.parse_expr("e[2] - e[2]") == SymFun.zero("e")


def test_parse_scalar_powers():
    assert cli.parse_expr("(-qt)^-2") == (-(QT_Q * QT_T)) ** -2
    v = cli.parse_expr("(-qt)^-1*s[21]")
    assert v == s_((2, 1)).scale((-(QT_Q * QT_T)).inverse())
    assert cli.parse_expr("q^2t") == QT_Q**2 * QT_T
    assert cli.parse_expr("p[1]/2") == p_(1).scale(QTScalar(1) * QTScalar(2).inverse())


def test_parse_errors():
    for bad in ["e[", "x[2]", "e[2]^-1", "2 +", "s[102]", "s[0]", "e[2] e["]:
        with pytest.raises((cli.ParseError, ValueError)):
            cli.parse_expr(bad)


# -- subcommands --------------------------------------------------------


def _run(capsys, *argv):
    rc = cli.main(list(argv))
    out = capsys.readouterr().out
    return rc, out


def test_expand_json(capsys):
    rc, out = _run(capsys, "expand", "e[2]", "--basis", "s")
    assert rc == 0
    data = json.loads(out)
    assert data["basis"] == "s"
    assert data["terms"] == [{"mu": [1, 1], "c": {"num": [["1", 0, 0]], "den": [["1", 0, 0]]}}]


def test_expand_latex(capsys):
    rc, out = _run(capsys, "expand", "e[2]+e[11]", "--basis", "e", "--latex")
    assert rc == 0 and "e_{2}" in out and "e_{11}" in out


def test_expand_scalar(capsys):
    rc, out = _run(capsys, "expand", "q*t+1")
    assert rc == 0 and "scalar" in json.loads(out)


def test_theta_subcommand(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("EHALL_CACHE_DIR", str(tmp_path / "cache"))
    rc, out = _run(capsys, "theta", "--seed", "e[1]", "--ab", "1,1", "--basis", "e")
    assert rc == 0
    assert SymFun.from_json(json.loads(out)) == e_(1)


def test_nabla_subcommand(capsys):
    rc, out = _run(capsys, "nabla", "e[2]", "--no-cache", "--basis", "s")
    assert rc == 0
    f = SymFun.from_json(json.loads(out))
    assert f == SymFun("s", {(2,): QT_ONE, (1, 1): QT_Q + QT_T})


def test_dyck_subcommand(capsys):
    rc, out = _run(capsys, "dyck", "5", "4")
    data = json.loads(out)
    assert rc == 0 and data["count"] == 14 and "0123" in data["words"]
    rc, out = _run(capsys, "dyck", "2", "2", "--returns", "2", "--enumerator", "--parking")
    data = json.loads(out)
    assert rc == 0 and data["words"] == ["00"]
    assert data["parking"]


@pytest.mark.parametrize("alpha", ["2,2", "0,3", "-1,4"])
def test_dyck_returns_not_a_composition_of_gcd(capsys, alpha):
    assert cli.main(["dyck", "3", "3", f"--returns={alpha}"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_ct_subcommand(capsys):
    rc, out = _run(capsys, "ct", "3", "2", "--basis", "e")
    assert rc == 0
    f = SymFun.from_json(json.loads(out))
    assert f == SymFun("e", {(2,): QT_Q, (1, 1): QT_ONE})


def test_check_subcommand(capsys, tmp_path):
    report = tmp_path / "report.json"
    rc, _ = _run(capsys, "check", "dim-eps", "--grid", "2", "--report", str(report))
    assert rc == 0
    data = json.loads(report.read_text())
    assert data and all(v["status"] == "holds" for v in data)


def test_usage_errors(capsys):
    assert cli.main(["expand", "e[("]) == 1
    assert cli.main(["bogus"]) == 1
    assert cli.main(["check", "no-such-check"]) == 1


def test_parser_reuse_matches_fresh_processes(capsys, tmp_path, monkeypatch):
    # the parser is built once per process: a sequence of calls in one
    # process must answer each call as a fresh process does
    calls = [
        ["nabla", "--power=2", "--basis=q"],  # usage error: no expression
        ["nabla", "--power=-1", "s[21]"],
        ["nabla", "s[21]"],
        ["expand", "--no-cache", "s[21]", "--basis=e"],
    ]
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src, EHALL_CACHE_DIR=str(tmp_path / "fresh"))
    fresh = [subprocess.run([sys.executable, "-m", "ehall.cli", *argv], env=env,
                            capture_output=True, text=True) for argv in calls]
    monkeypatch.setenv("EHALL_CACHE_DIR", str(tmp_path / "reused"))
    capsys.readouterr()
    for argv, want in zip(calls, fresh):
        rc = cli.main(argv)
        got = capsys.readouterr()
        assert (rc, got.out, got.err) == (want.returncode, want.stdout, want.stderr), argv
    assert fresh[0].returncode == 1 and "usage:" in fresh[0].stderr
    assert [r.returncode for r in fresh[1:]] == [0, 0, 0]


def test_arithmetic_errors_exit_1(capsys):
    # division by zero and a pole under --at end in a message, not a traceback
    assert cli.main(["expand", "s[2]/0"]) == 1
    assert "error:" in capsys.readouterr().err
    argv = ["theta", "--seed", "e[1]/(1-t)", "--ab=1,1", "--at", "t=1", "--no-cache"]
    assert cli.main(argv) == 1
    assert "error:" in capsys.readouterr().err


#: grammar tokens: digits 1-3, scalars, basis letters, operators, brackets,
#: whole generators and opened ones (their index is whatever follows)
_TOKENS = list("123qtsmehp+-*/^()[],") + [f"{b}[" for b in "smehpq"]
_GENERATORS = [f"{b}[{i}]" for b in "smehpq" for i in ("1", "2", "21", "1,1")]


def _degree_bound(tokens):
    """Upper bound on the degree of any symmetric function the text builds.

    Whole generators count their index; a bare integer counts when it
    follows an open '[' through integers and commas only (it may be a part);
    each '^' may multiply a degree by its exponent, at most 3.
    """
    degree, carets, in_index = 0, 0, False
    for tok in tokens:
        if tok in _GENERATORS:
            degree += sum(int(ch) for ch in tok if ch.isdigit())
        elif tok.isdigit() and in_index:
            degree += int(tok)
        carets += tok == "^"
        in_index = tok.endswith("[") or (in_index and (tok.isdigit() or tok == ","))
    return degree * 3**carets


def _cheap(tokens):
    """Keep the tokens that hold every prefix to degree 12 (under a second)."""
    kept = []
    for tok in tokens:
        if _degree_bound(kept + [tok]) <= 12:
            kept.append(tok)
    return " ".join(kept)


_EXPRESSIONS = st.lists(st.sampled_from(_TOKENS + _GENERATORS), max_size=12).map(_cheap)


@settings(max_examples=200, deadline=None)
@given(_EXPRESSIONS)
def test_expand_fuzz_exit_codes(text):
    # any string over the grammar's tokens ends in an exit code, not a traceback
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = cli.main(["expand", "--", text])
    assert rc in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()


# -- cache ---------------------------------------------------------------


def test_cache_round_trip(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("EHALL_CACHE_DIR", str(tmp_path))
    args = ["theta", "--seed", "e[2]", "--ab", "1,1", "--basis", "s"]
    rc, out1 = _run(capsys, *args)
    assert rc == 0
    files = [f for f in os.listdir(tmp_path) if f.endswith(".json")]
    assert len(files) == 1
    rc, out2 = _run(capsys, *args)
    assert out1 == out2
    rc, out = _run(capsys, "cache", "stats")
    assert json.loads(out)["entries"] == 1
    rc, out = _run(capsys, "cache", "clear")
    assert json.loads(out)["cleared"] == 1


def test_cache_corrupt_entry_recomputed(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("EHALL_CACHE_DIR", str(tmp_path))
    args = ["theta", "--seed", "e[1]", "--ab", "1,2", "--basis", "s"]
    rc, out1 = _run(capsys, *args)
    (path,) = [tmp_path / f for f in os.listdir(tmp_path) if f.endswith(".json")]
    path.write_text("{ not json")
    rc, out2 = _run(capsys, *args)
    assert rc == 0 and out1 == out2


@pytest.mark.parametrize("entry", [
    {"value": 5},
    {"value": {"basis": "s", "terms": [[[2], 1]]}},
    {"value": {"basis": "x", "terms": []}},
    [1, 2],
])
def test_cache_malformed_value_recomputed(tmp_path, monkeypatch, capsys, entry):
    # valid JSON of the current version whose value is not a SymFun
    monkeypatch.setenv("EHALL_CACHE_DIR", str(tmp_path))
    args = ["nabla", "e[2]", "--basis", "s"]
    rc, out1 = _run(capsys, *args)
    (path,) = [tmp_path / f for f in os.listdir(tmp_path) if f.endswith(".json")]
    if isinstance(entry, dict):
        entry["meta"] = {"version": cli.CALIBRATION_VERSION, "millis": 0}
    path.write_text(json.dumps(entry))
    assert cli.main(args) == 0
    captured = capsys.readouterr()
    assert captured.out == out1 and "ignoring corrupt cache entry" in captured.err
    # the entry was rewritten: the next run hits it without a warning
    assert SymFun.from_json(json.loads(path.read_text())["value"])
    assert cli.main(args) == 0
    assert capsys.readouterr() == (out1, "")


def test_cache_key_includes_calibration():
    k1 = cli.cache_key("theta", {"x": 1})
    k2 = cli.cache_key("theta", {"x": 2})
    assert k1 != k2 and len(k1) == 64
