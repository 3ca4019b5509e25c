"""One pass of a workload in a fresh process, or one set-up probe.

    python3 worker.py setup
    python3 worker.py run WORKLOAD CASES_JSON RESULT_JSON [--trace]

``setup`` imports ehall, makes the exact field ready (sympy's gcd ring is
loaded lazily on the first gcd) and prints ``ready`` with the
CLOCK_MONOTONIC reading at that moment.  ``run`` executes the
case list as a closed loop: one caller, each case waits for the previous
one.  Every case is timed on its own; the canonical form of its output is
taken after its timer stops.  With ``--trace`` the spans are written to
``spans.bin`` in the working directory when the pass ends.
"""

from __future__ import annotations

import io
import json
import os
import resource
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from math import gcd

import workloads


def ready_field():
    from ehall import checks, cli, ctengine, rectcomb  # noqa: F401
    from ehall.coeffs import QTPoly, poly_gcd

    q_plus_1 = QTPoly({(1, 0): 1, (0, 0): 1})
    poly_gcd(q_plus_1 * QTPoly({(0, 1): 1, (0, 0): 1}), q_plus_1)


def _error():
    return traceback.format_exc(limit=4)[-600:]


# ---------------------------------------------------------------------------
# the three workloads: each returns one result dict per case
# ---------------------------------------------------------------------------


def run_sweep(cases, tracer=None):
    from ehall import checks

    out = []
    for name in cases["checks"]:
        seen = {}  # a check may repeat its params (t1-mult does)
        verdicts = checks.CHECKS[name](cases["grid"])
        while True:
            if tracer:
                tracer.case_id = len(out)
            t0 = time.perf_counter()
            try:
                v = next(verdicts)
            except StopIteration:
                break
            except Exception:
                out.append({"check": name, "error": _error()})
                break
            ms = (time.perf_counter() - t0) * 1000
            j = v.to_json()
            j.pop("runtimeMillis", None)
            key = workloads.verdict_key(j)
            seen[key] = seen.get(key, 0) + 1
            out.append({"ms": ms, "key": f"{key}#{seen[key]}", "out": workloads.canonical(j)})
    return out


def _cache_entries():
    d = os.environ["EHALL_CACHE_DIR"]
    return sum(1 for n in os.listdir(d) if n.endswith(".json")) if os.path.isdir(d) else 0


def run_nabla(cases, tracer=None):
    from ehall import cli

    out = []
    for case in cases:
        entries = _cache_entries()
        stdout, stderr = io.StringIO(), io.StringIO()
        if tracer:
            tracer.case_id = case["id"]
        t0 = time.perf_counter()
        try:
            with redirect_stdout(stdout), redirect_stderr(stderr):
                rc = cli.main(case["argv"])
        except Exception:
            rc, err = None, _error()
        ms = (time.perf_counter() - t0) * 1000
        res = {"id": case["id"], "ms": ms}
        if rc is None:
            res["error"] = err
        elif rc != 0:
            res["error"] = f"exit code {rc}: {stderr.getvalue()[-300:]}"
        else:
            try:
                res["out"] = workloads.digest(json.loads(stdout.getvalue()))
            except ValueError:
                res["error"] = f"stdout is not JSON: {stdout.getvalue()[:200]!r}"
            res["cache_writes"] = _cache_entries() - entries
        out.append(res)
    return out


def enumerator_outputs(case):
    """Every enumerator of one (m,n) pair, as program objects."""
    from ehall import checks, ctengine, rectcomb

    m, n = case["m"], case["n"]
    pe = rectcomb.path_enumerator(m, n)
    res = {
        "ct": ctengine.ct_t1(m, n),
        "ct_primitive": ctengine.ct_t1(m, n, primitive=True),
        "paths": pe,
        "paths_returns": rectcomb.path_enumerator(m, n, returns_at=tuple(case["alpha"])),
        "paths_primitive": rectcomb.primitive_enumerator(m, n),
    }
    if case["bizley"]:
        d = gcd(m, n)
        res["bizley"] = rectcomb.bizley(m // d, n // d, d)
        res["bizley_equal"] = checks.at_qt1(pe) == res["bizley"]
    if case["parking"]:
        res["parking"] = [[list(pf.word()), list(pf.labels), list(rectcomb.descent_comp(pf))]
                          for p in rectcomb.enumerate_paths(m, n) for pf in rectcomb.parking(p)]
    return res


def enumerator_digests(res):
    out = {}
    for k, v in res.items():
        if isinstance(v, bool):
            out[k] = v
        else:
            out[k] = workloads.digest(v if isinstance(v, list) else v.to_json())
    return out


def run_enumerators(cases, tracer=None):
    out = []
    for case in cases:
        if tracer:
            tracer.case_id = case["id"]
        t0 = time.perf_counter()
        try:
            res = enumerator_outputs(case)
        except Exception:
            out.append({"id": case["id"], "ms": (time.perf_counter() - t0) * 1000, "error": _error()})
            continue
        ms = (time.perf_counter() - t0) * 1000
        out.append({"id": case["id"], "ms": ms, "out": enumerator_digests(res)})
    return out


RUNNERS = {"sweep": run_sweep, "nabla-cli": run_nabla, "enumerators": run_enumerators}


def main(argv) -> int:
    if argv[:1] == ["setup"]:
        ready_field()
        print(f"ready {time.clock_gettime(time.CLOCK_MONOTONIC)!r}", flush=True)
        return 0
    if len(argv) < 4 or argv[0] != "run" or argv[1] not in RUNNERS:
        print(__doc__, file=sys.stderr)
        return 2
    _, workload, cases_path, result_path = argv[:4]
    trace = "--trace" in argv[4:]
    ready_field()
    with open(cases_path) as fh:
        cases = json.load(fh)
    tracer = originals = None
    if trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        originals = tracing.install(tracer)
    results = RUNNERS[workload](cases, tracer)
    out = {
        "cases": results,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if trace:
        out["trace"] = {"names": tracer.names, "spans": tracer.write("spans.bin"),
                        "gauges": tracing.gauges(tracer, originals)}
    with open(result_path, "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
