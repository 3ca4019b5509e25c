"""Record the reference outputs the benchmark's output gate compares against.

    PYTHONPATH=src python3 perfbench/make_refs.py [sweep|enumerators|nabla-cli ...]

Run from the repository root.  For each workload this computes every output
any seed can ask for, through the same worker code the benchmark runs, and
cross-checks it once against an independent route before writing
``perfbench/refs/<workload>.json``:

* sweep        no verdict ``fails``, in particular in the proved checks
               (dim-delta, dim-eps, qt1-formula);
* enumerators  ct_t1 = path_enumerator, their primitive forms agree, the
               returns_at enumerators sum to path_enumerator, the (d) one is
               the primitive one, and path_enumerator = bizley at q = t = 1;
* nabla-cli    nabla(f) = theta(1,1,f) for every catalogue entry of degree
               <= 4.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import sys
import tempfile
from math import gcd
from pathlib import Path
from time import perf_counter

import worker
import workloads

ROOT = Path(__file__).resolve().parent.parent


def _write(name, data):
    """JSON with one line per entry of each top-level dict, so diffs are readable."""
    def compact(v):
        return json.dumps(v, sort_keys=True, separators=(",", ":"))

    lines = []
    for key in sorted(data):
        value = data[key]
        if isinstance(value, dict):
            items = [f"  {compact(k)}: {compact(value[k])}" for k in sorted(value)]
            lines.append(f" {compact(key)}: {{\n" + ",\n".join(items) + "\n }")
        else:
            lines.append(f" {compact(key)}: {compact(value)}")
    workloads.REFS.mkdir(exist_ok=True)
    (workloads.REFS / f"{name}.json").write_text("{\n" + ",\n".join(lines) + "\n}\n")


def make_sweep():
    from ehall import checks

    names = sorted(checks.CHECKS)
    results = worker.run_sweep({"grid": workloads.SWEEP_GRID, "checks": names})
    errors = [r for r in results if "error" in r]
    assert not errors, errors
    verdicts = {r["key"]: json.loads(r["out"]) for r in results}
    assert len(verdicts) == len(results)
    failing = [k for k, v in verdicts.items() if v["status"] == "fails"]
    assert not failing, failing
    proved = [k for k in verdicts if k.split("|")[0] in checks.NON_CONJECTURAL]
    assert proved and all(verdicts[k]["status"] == "holds" for k in proved)
    print(f"sweep: {len(verdicts)} verdicts, {len(proved)} proved ones hold")
    _write("sweep", {"grid": workloads.SWEEP_GRID, "checks": names, "verdicts": verdicts})


def make_enumerators():
    from ehall import checks, rectcomb
    from ehall.symfun import SymFun

    pairs, seconds = {}, {}
    for m in workloads.ENUM_BOX:
        for n in workloads.ENUM_BOX:
            d = gcd(m, n)
            case = {"m": m, "n": n, "alpha": [d], "bizley": True,
                    "parking": n <= workloads.ENUM_PARKING_MAX_N}
            # the cost of the pair as the workload asks for it
            t0 = perf_counter()
            worker.enumerator_outputs(dict(case, bizley=m >= n))
            seconds[(m, n)] = perf_counter() - t0
            res = worker.enumerator_outputs(case)
            returns = {}
            total = SymFun.zero("e")
            for alpha in workloads.compositions(d):
                f = rectcomb.path_enumerator(m, n, returns_at=alpha)
                returns[",".join(map(str, alpha))] = workloads.digest(f.to_json())
                total = total + f
            assert res["ct"] == res["paths"], (m, n)
            assert res["ct_primitive"] == res["paths_primitive"], (m, n)
            assert res["paths_returns"] == res["paths_primitive"], (m, n)
            assert total == res["paths"], (m, n)
            assert res["bizley_equal"] and checks.at_qt1(res["ct"]) == res["bizley"], (m, n)
            entry = worker.enumerator_digests(res)
            del entry["paths_returns"]
            entry["returns"] = returns
            pairs[f"{m},{n}"] = entry
            print(f"  ({m},{n}) {seconds[(m, n)]:.3f} s", flush=True)
    # classes: see workloads.ENUM_POOL
    drawn = sorted(seconds, key=seconds.get)[:workloads.ENUM_POOL]
    always = sorted(list(p) for p in seconds if p not in drawn)
    classes = [[len(always), always]]
    classes += [[1, [list(p) for p in drawn[k:k + 2]]] for k in range(0, len(drawn), 2)]
    print(f"enumerators: {len(pairs)} pairs cross-checked")
    _write("enumerators", {"classes": classes, "pairs": pairs})


# nabla catalogue: expressions of distinct value per degree, one term at
# degree 1 and two terms above.  Above degree 1 an expression must have at
# least two Schur terms: a single s_mu costs a fraction of the others
# (about 0.3 s against 2-3 s at degree 5) and would make the work of a seed
# depend on whether it was drawn.
NABLA_CATALOGUE_SIZE = {1: 6, 2: 10, 3: 16, 4: 3, 5: 1}


def _catalogue():
    from ehall import cli, shapes

    rng = random.Random(2016)
    out = {}
    for d, size in NABLA_CATALOGUE_SIZE.items():
        generators = [(b, mu) for b in "sehm" for mu in shapes.partitions_of(d)]
        entries, seen = [], set()
        while len(entries) < size:
            terms = [[rng.choice([1, -1, 2, -2, 3, -3]), b, list(mu)]
                     for b, mu in rng.sample(generators, 1 if d == 1 else 2)]
            f = cli.parse_expr(workloads.render_expr(terms))
            if not f or f.key() in seen or (d > 1 and len(f.convert("s").terms) < 2):
                continue
            seen.add(f.key())
            entries.append(terms)
        out[str(d)] = entries
    return out


def make_nabla():
    from ehall import cli, ehallops, macdonald

    catalogue = _catalogue()
    outputs = {}
    for d, entries in catalogue.items():
        for i, terms in enumerate(entries):
            text = workloads.render_expr(terms)
            for op in workloads.NABLA_OPS:
                results = worker.run_nabla([{"id": 0, "argv": workloads.command_argv(op, text)}])
                assert "error" not in results[0], results[0]
                outputs[f"{d}:{i}:{op}"] = results[0]["out"]
                print(f"  {d}:{i}:{op} {text} {results[0]['ms']:.0f} ms", flush=True)
            f = cli._as_symfun(cli.parse_expr(text))
            if int(d) <= 4:
                assert macdonald.nabla(f) == ehallops.theta(1, 1, f), text
    print(f"nabla-cli: {len(outputs)} outputs; nabla = theta(1,1,.) up to degree 4")
    _write("nabla-cli", {"catalogue": catalogue, "outputs": outputs})


MAKERS = {"sweep": make_sweep, "enumerators": make_enumerators, "nabla-cli": make_nabla}


def main(argv):
    (ROOT / ".perfbench-work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="refs-", dir=ROOT / ".perfbench-work"))
    os.environ["EHALL_CACHE_DIR"] = str(work / "cache")
    try:
        for name in argv or list(MAKERS):
            MAKERS[name]()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
