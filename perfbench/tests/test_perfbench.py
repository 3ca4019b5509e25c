"""Self-tests of the benchmark: the output gate, self-time arithmetic,
seeded case lists, and every workload at a smoke size.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _smoke_cases(workload):
    if workload == "sweep":
        return {"grid": workloads.SWEEP_GRID, "checks": ["incl-e", "t1-mult"]}
    cases = workloads.make_cases(workload, seed=1)
    if workload == "nabla-cli":
        small = [c for c in cases if c["degree"] <= 2]
        first_repeat = next(k for k, c in enumerate(small) if c["repeat"])
        return small[:first_repeat + 1]
    return [c for c in cases if c["m"] * c["n"] <= 30][:4]


@pytest.fixture
def workdir(tmp_path):
    return tmp_path


# -- self time ---------------------------------------------------------------


def test_aggregate_self_time_on_a_synthetic_tree():
    #   a [0, 10]
    #   +-- b [1, 4]
    #   +-- c [5, 9]
    #       +-- b [6, 7]
    names = ["a", "b", "c"]
    name_of = [0, 1, 2, 1]
    start = [0.0, 1.0, 5.0, 6.0]
    end = [10.0, 4.0, 9.0, 7.0]
    parent = [-1, 0, 0, 2]
    got = tracer.aggregate(names, name_of, start, end, parent)
    assert got == {"a": (1, 3.0), "b": (2, 4.0), "c": (1, 3.0)}


def test_tracer_records_parents_and_cases():
    t = tracer.Tracer()

    def leaf(x):
        return x + 1

    leaf_w = t.wrap("leaf", leaf)

    def outer(x):
        return leaf_w(leaf_w(x))

    outer_w = t.wrap("outer", outer)
    t.case_id = 7
    assert outer_w(1) == 3
    assert list(t.name_of) == [1, 0, 0]
    assert list(t.parent) == [-1, 0, 0]
    assert list(t.case) == [7, 7, 7]
    assert all(s <= e for s, e in zip(t.start, t.end))
    agg = tracer.aggregate(t.names, t.name_of, t.start, t.end, t.parent)
    assert agg["leaf"][0] == 2 and agg["outer"][0] == 1


# -- case lists ------------------------------------------------------------


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_case_lists_depend_only_on_the_seed(workload):
    assert workloads.make_cases(workload, 3) == workloads.make_cases(workload, 3)
    assert workloads.make_cases(workload, 3) != workloads.make_cases(workload, 4)


def test_nabla_repeats_follow_their_originals_and_parse_the_same():
    from ehall import cli

    cases = workloads.make_cases("nabla-cli", 5)
    assert len(cases) == sum(workloads.NABLA_COMMANDS_PER_DEGREE.values()) >= 100
    repeats = [c for c in cases if c["repeat"]]
    assert len(repeats) == sum(workloads.NABLA_REPEATS_PER_DEGREE.values()) < len(cases) / 4
    first = {}
    for c in cases:
        first.setdefault(c["key"], c)
    respelled = 0
    for c in repeats:
        orig = first[c["key"]]
        assert orig["id"] < c["id"] and not orig["repeat"]
        text, orig_text = (a[-1] if a[0] == "nabla" else a[1].split("=", 1)[1]
                           for a in (c["argv"], orig["argv"]))
        assert cli.parse_expr(text) == cli.parse_expr(orig_text)
        respelled += text != orig_text
    assert respelled >= 1


# -- the output gate and the command ---------------------------------------


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_workload_passes_the_gate_at_smoke_size(workload, workdir):
    cases = _smoke_cases(workload)
    ref = workloads.load_ref(workload)
    result = run.run_pass(workload, cases, workdir / "p", trace=False)
    attempted, failures = run.gate(workload, cases, ref, result)
    assert attempted >= 2 and failures == []
    metrics = run.end_to_end([0.5], [result])
    assert set(metrics) == set(run.END_TO_END_UNITS)
    assert all(v > 0 for v in metrics.values())


def test_traced_pass_passes_the_gate_and_reports_every_layer(workdir):
    cases = _smoke_cases("nabla-cli")
    untraced = run.run_pass("nabla-cli", cases, workdir / "p", trace=False)
    traced = run.run_pass("nabla-cli", cases, workdir / "t", trace=True)
    assert run.gate("nabla-cli", cases, workloads.load_ref("nabla-cli"), traced)[1] == []
    metrics = run.per_layer(traced, [untraced])
    assert set(metrics) == set(tracer.per_layer_units())
    assert metrics["cli.main.calls"] == len(cases)
    assert metrics["cli.cache_hit_ratio"] > 0
    assert metrics["macdonald.nabla.calls"] > 0


def _corrupt(result):
    case = next(r for r in result["cases"] if "out" in r)
    if isinstance(case["out"], dict):
        case["out"]["paths"] = "0" * 32
    else:
        case["out"] = "corrupted"
    return result


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_a_corrupted_output_is_a_failure(workload, workdir):
    cases = _smoke_cases(workload)
    result = _corrupt(run.run_pass(workload, cases, workdir / "p", trace=False))
    attempted, failures = run.gate(workload, cases, workloads.load_ref(workload), result)
    assert len(failures) == 1 and attempted > 1


def test_the_command_fails_on_a_corrupted_output(monkeypatch):
    smoke = _smoke_cases("enumerators")
    monkeypatch.setattr(workloads, "make_cases", lambda w, s: smoke)
    real_pass = run.run_pass
    monkeypatch.setattr(run, "run_pass", lambda *a: _corrupt(real_pass(*a)))
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    out = io.StringIO()
    with redirect_stdout(out):
        rc = run.main(["--workload", "enumerators", "--seed", "1", "--seconds", "0"])
    lines = out.getvalue().splitlines()
    result = json.loads(lines[-1])
    assert rc == 1 and result["correct"] is False and result["failed"] >= 1
    assert any(line.split()[:1] == ["error_ratio"] and float(line.split()[1]) > 0
               for line in lines)
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)


def test_the_command_refuses_to_run_without_the_program(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", "sweep", "--seed", "1", "--seconds", "1"]) == 2


# -- BENCHMARK.json ------------------------------------------------------------


def test_benchmark_json_names_what_the_command_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracer.per_layer_units()
