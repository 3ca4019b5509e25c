"""The ehall benchmark: one workload, one seed, every metric, checked outputs.

    python3 perfbench/run.py --workload sweep|nabla-cli|enumerators \\
        --seed N --seconds S --trace 0|1

Run from the repository root.  The seed makes the case list
(``workloads.py``); each pass runs the whole list in a fresh Python process
(``worker.py``) with cold caches, its own working and cache directory, a
fixed PYTHONHASHSEED and EHALL_THREADS unset.  As many whole passes run as
fit in S seconds at the pace of the first ones (at least one).  Every output is compared with the reference
recorded in ``refs/``; a case that raised or differs is a failure, and the
command then exits 1.

With ``--trace 0`` the last line reports the end-to-end metrics:

  setup_s      median over SETUP_PROBES fresh processes of the time from
               process start until ehall is imported and sympy's gcd ring
               (the exact field) is ready
  wall_s       median over passes of the time spent in cases, first to last
  case_p50_ms  median latency per case (a verdict, a command, an (m,n) pair),
  case_p90_ms  90th percentile, over the cases of all passes
  peak_rss_mb  median over passes of the worker's peak resident memory

``error_ratio`` (failed / attempted cases) is printed above it; it is 0 when
the program is right, so it is carried by ``attempted`` and ``failed``.
With ``--trace 1`` one more pass runs with spans on every layer's public
functions (``tracer.py``) and the last line reports the per-layer metrics,
including ``trace.overhead_s`` (traced minus untraced wall_s).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracer as tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work"

SETUP_PROBES = 7
PASS_TIMEOUT_S = 170
#: passes never take more than this, whatever --seconds asks, so a run ends in time
MEASURE_CAP_S = 100

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "case_p50_ms": "ms",
                    "case_p90_ms": "ms", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    pass


def _clock():
    # CLOCK_MONOTONIC is one clock for every process, so a child's reading
    # can be compared with the parent's
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def hermetic_env(workdir: Path):
    env = {k: v for k, v in os.environ.items()
           if k not in ("EHALL_THREADS", "EHALL_CACHE_DIR", "PYTHONPATH", "PYTHONHASHSEED")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    env["EHALL_CACHE_DIR"] = str(workdir / "cache")
    return env


def _worker(args, workdir: Path, timeout):
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return subprocess.run([sys.executable, str(HERE / "worker.py"), *args], cwd=workdir,
                              env=hermetic_env(workdir), capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args[:2]} did not finish in {timeout} s") from exc


def setup_probe(workdir: Path) -> float:
    t0 = _clock()
    proc = _worker(["setup"], workdir, 60)
    if proc.returncode != 0 or not proc.stdout.startswith("ready "):
        raise BenchError(f"set-up probe failed (exit {proc.returncode}): {proc.stderr[-2000:]}")
    return float(proc.stdout.split()[1]) - t0


def run_pass(workload: str, cases, workdir: Path, trace: bool):
    """One fresh-process pass; returns the worker's result dict."""
    workdir.mkdir(parents=True)
    (workdir / "cases.json").write_text(json.dumps(cases))
    args = ["run", workload, "cases.json", "result.json"] + (["--trace"] if trace else [])
    proc = _worker(args, workdir, PASS_TIMEOUT_S)
    result_path = workdir / "result.json"
    if proc.returncode != 0 or not result_path.exists():
        raise BenchError(f"{workload} pass failed (exit {proc.returncode}): {proc.stderr[-2000:]}")
    result = json.loads(result_path.read_text())
    if trace:
        tr = result["trace"]
        spans = tracing.read_spans(workdir / "spans.bin", tr["spans"])
        tr["layers"] = tracing.aggregate(tr["names"], *spans[:4])
    return result


# ---------------------------------------------------------------------------
# the output gate
# ---------------------------------------------------------------------------


def gate(workload: str, cases, ref, result):
    """(attempted, list of failure messages) for one pass."""
    if workload == "sweep":
        return _gate_sweep(cases, ref, result["cases"])
    by_id = {r["id"]: r for r in result["cases"]}
    check = _check_nabla if workload == "nabla-cli" else _check_enumerator
    failures = []
    for case in cases:
        res = by_id.get(case["id"])
        if res is None:
            msg = "no result"
        elif "error" in res:
            msg = res["error"]
        else:
            msg = check(case, ref, res)
        if msg:
            failures.append(f"case {case['id']}: {msg}")
    return len(cases), failures


def _gate_sweep(cases, ref, results):
    checks = set(cases["checks"])
    expected = {k: v for k, v in ref["verdicts"].items() if k.split("|")[0] in checks}
    produced = {r["key"]: r["out"] for r in results if "key" in r}
    raised = {r["check"]: r["error"] for r in results if "error" in r}
    failures = []
    for k, v in expected.items():
        if k not in produced:
            name = k.split("|")[0]
            failures.append(f"verdict {k}: missing" +
                            (f"; {name} raised {raised[name]}" if name in raised else ""))
        elif produced[k] != workloads.canonical(v):
            failures.append(f"verdict {k}: differs")
    failures += [f"verdict {k}: not in the reference" for k in produced if k not in expected]
    return len(expected), failures


def _check_nabla(case, ref, res):
    if res["out"] != ref["outputs"][case["key"]]:
        return f"output of {case['argv']} differs"
    want = 0 if case["repeat"] else 1
    if res["cache_writes"] != want:
        return f"{case['argv']} wrote {res['cache_writes']} cache entries, expected {want}"
    return None


def _check_enumerator(case, ref, res):
    want = dict(ref["pairs"][f"{case['m']},{case['n']}"])
    want["paths_returns"] = want.pop("returns")[",".join(map(str, case["alpha"]))]
    if not case["bizley"]:
        del want["bizley"], want["bizley_equal"]
    if not case["parking"]:
        want.pop("parking", None)
    bad = sorted(k for k in set(want) | set(res["out"]) if want.get(k) != res["out"].get(k))
    return f"({case['m']},{case['n']}) differs in {bad}" if bad else None


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def pass_wall_s(result) -> float:
    """Time spent in cases, first to last; the gate's own work is excluded."""
    return sum(r["ms"] for r in result["cases"] if "ms" in r) / 1000


def end_to_end(setup, passes):
    lat = [r["ms"] for p in passes for r in p["cases"] if "ms" in r]
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(pass_wall_s(p) for p in passes),
        "case_p50_ms": statistics.median(lat),
        "case_p90_ms": statistics.quantiles(lat, n=10, method="inclusive")[8],
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }


def per_layer(traced, passes):
    tr = traced["trace"]
    out = {}
    for prefix in tracing.TRACED:
        calls, self_s = tr["layers"].get(prefix, (0, 0.0))
        out[prefix + ".calls"] = calls
        out[prefix + ".self_s"] = self_s
    out.update(tr["gauges"])
    out["trace.overhead_s"] = pass_wall_s(traced) - statistics.median(
        pass_wall_s(p) for p in passes)
    return out


def measure(workload: str, seed: int, seconds: float, trace: bool, workdir: Path):
    """Run the passes; returns (metrics, units, attempted, failures, passes)."""
    cases = workloads.make_cases(workload, seed)
    ref = workloads.load_ref(workload)
    setup = [] if trace else [setup_probe(workdir / f"setup{k}") for k in range(SETUP_PROBES)]
    passes = []
    t0 = _clock()
    budget = min(seconds, MEASURE_CAP_S)
    # another pass starts only if, at the pace so far, it ends within the budget
    while not passes or (_clock() - t0) * (len(passes) + 1) / len(passes) <= budget:
        passes.append(run_pass(workload, cases, workdir / f"pass{len(passes)}", False))
    gated = list(passes)
    if trace:
        traced = run_pass(workload, cases, workdir / "traced", True)
        gated.append(traced)
        metrics, units = per_layer(traced, passes), tracing.per_layer_units()
    else:
        metrics, units = end_to_end(setup, passes), END_TO_END_UNITS
    attempted, failures = 0, []
    for p in gated:
        n, bad = gate(workload, cases, ref, p)
        attempted += n
        failures += bad
    return metrics, units, attempted, failures, passes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="ehall benchmark (see module docstring)")
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "ehall" / "__init__.py").is_file():
        print(f"error: no ehall source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK))
    try:
        metrics, units, attempted, failures, passes = measure(
            args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    for msg in failures[:20]:
        print(f"FAILED {msg}", file=sys.stderr)
    cases_per_pass = attempted // (len(passes) + args.trace)
    print(f"workload {args.workload}  seed {args.seed}  passes {len(passes)}"
          f"{' + 1 traced' if args.trace else ''}  cases per pass {cases_per_pass}")
    for name, value in metrics.items():
        print(f"  {name:<40} {value:>14.6g} {units[name]}")
    print(f"  {'error_ratio':<40} {len(failures) / attempted:>14.6g} ratio"
          f"  ({len(failures)} of {attempted} cases)")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
