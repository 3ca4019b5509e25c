"""Seeded case lists for the three workloads, and the canonical form of outputs.

This module imports nothing from ``ehall``: ``run.py`` makes the case lists
from a seed and the committed reference files, and the worker process only
ever sees the generated list.

Workloads (each case is timed on its own; see README.md for the layers):

* ``sweep``        one case per verdict of ``ehall check all --grid 4``; the
                   seed sets the order of the 17 checks.
* ``nabla-cli``    ``ehall nabla EXPR --power P`` and
                   ``ehall theta --seed EXPR --ab=-1,1`` sent through
                   ``cli.main``; a fixed share of commands repeat earlier ones,
                   some respelled, and must be served from the file cache.
* ``enumerators``  (m,n) pairs drawn from the box 2..9; each pair computes the
                   t = 1 enumerators by every route.
"""

from __future__ import annotations

import hashlib
import json
import random
from math import gcd
from pathlib import Path

REFS = Path(__file__).resolve().parent / "refs"

WORKLOADS = ("sweep", "nabla-cli", "enumerators")

SWEEP_GRID = 4

# nabla-cli: commands per degree, of which NABLA_REPEATS_PER_DEGREE repeat
# an earlier command of the same degree.  The misses of a degree are split
# evenly over NABLA_OPS.  From degree NABLA_FIXED_FROM on, the catalogue
# holds exactly as many expressions as each operation needs (3 at degree 4,
# 1 at degree 5), so those misses, nine tenths of the work, are the same for
# every seed; the seed draws the misses at degrees 1-3, the repeats and the
# order.  With these counts case_p90_ms falls among the degree-4 misses
# (above them are only the degree-5 ones) and case_p50_ms in the middle of
# the degree-3 misses; the repeats, a fifth of all commands, cost about what
# a degree-1 miss costs.
NABLA_COMMANDS_PER_DEGREE = {1: 8, 2: 12, 3: 60, 4: 15, 5: 5}
NABLA_FIXED_FROM = 4
NABLA_REPEATS_PER_DEGREE = {1: 4, 2: 4, 3: 8, 4: 3, 5: 1}
NABLA_OPS = ("nabla:-1", "nabla:1", "nabla:2", "theta:-1,1")

# enumerators: the box 2..9, run in box order.  (At 10 a single pair, (10,10)
# or (10,6) with its parking functions, costs as much as a dozen others,
# and the latency quantiles would hang on a few pairs.)  The ENUM_POOL
# cheapest pairs form pairs of neighbours in cost and the seed draws one of
# each; every dearer pair always runs.  That leaves 45 pairs whose median
# (about 40 ms) and 90th percentile fall where neighbouring pairs cost
# within a few percent of each other: the cheap pairs' times are mostly
# interpreter noise, and the quantiles would jump between them.  The pairs
# left out cost under a tenth of a second together.
ENUM_BOX = range(2, 10)
ENUM_POOL = 38
ENUM_PARKING_MAX_N = 6


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def digest(obj) -> str:
    return hashlib.sha256(canonical(obj).encode()).hexdigest()[:32]


def load_ref(workload: str):
    with open(REFS / f"{workload}.json") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def verdict_key(verdict_json) -> str:
    return verdict_json["name"] + "|" + canonical(verdict_json["params"])


def sweep_cases(seed: int, check_names):
    names = sorted(check_names)
    random.Random(seed).shuffle(names)
    return {"grid": SWEEP_GRID, "checks": names}


# ---------------------------------------------------------------------------
# nabla-cli
# ---------------------------------------------------------------------------


def render_expr(terms, style=()) -> str:
    """Text of sum c * basis[mu] in the CLI grammar.

    ``style`` respells without changing the value: "comma" writes s[2,1]
    for s[21], "reversed" swaps the term order, "implicit" drops the '*'
    after a coefficient, "spaced" puts spaces around the signs.
    """
    terms = list(reversed(terms)) if "reversed" in style else list(terms)
    sep = " " if "spaced" in style else ""
    star = "" if "implicit" in style else "*"
    out = ""
    for i, (c, basis, mu) in enumerate(terms):
        idx = ",".join(map(str, mu)) if "comma" in style else "".join(map(str, mu))
        gen = f"{basis}[{idx}]"
        mag = abs(c)
        body = gen if mag == 1 else f"{mag}{star}{gen}"
        if i == 0:
            out = ("-" if c < 0 else "") + body
        else:
            out += f"{sep}{'-' if c < 0 else '+'}{sep}{body}"
    return out


RESPELLINGS = (("comma",), ("reversed",), ("implicit",), ("spaced",),
               ("comma", "reversed"), ("implicit", "spaced"))


def command_argv(op: str, text: str):
    # "--" and "--seed=" keep an expression that starts with '-' from
    # being read as an option
    kind, arg = op.split(":")
    if kind == "nabla":
        return ["nabla", f"--power={arg}", "--", text]
    return ["theta", f"--seed={text}", f"--ab={arg}"]


def nabla_cases(seed: int, catalogue):
    """The command list.

    catalogue maps a degree (as a string) to a list of expressions, each a
    list of [coefficient, basis, partition] terms, all of distinct value.
    A miss is a distinct (expression, operation) pair, the same number for
    each operation; a repeat re-sends an earlier command of its degree,
    every other one respelled, at a random place after it.
    """
    rng = random.Random(seed)
    misses, repeats = [], []
    for d, count in NABLA_COMMANDS_PER_DEGREE.items():
        per_op = (count - NABLA_REPEATS_PER_DEGREE[d]) // len(NABLA_OPS)
        drawn = [{"degree": d, "entry": i, "op": op} for op in NABLA_OPS
                 for i in rng.sample(range(len(catalogue[str(d)])), per_op)]
        misses.extend(drawn)
        for j in range(NABLA_REPEATS_PER_DEGREE[d]):
            orig = rng.choice(drawn)
            styles = RESPELLINGS
            if len({basis for _, basis, _ in catalogue[str(d)][orig["entry"]]}) > 1:
                # the parser lands in the basis of the first term and the
                # cache key is the parsed expression, so swapping terms of
                # different bases is a different key: not a repeat today
                styles = [st for st in RESPELLINGS if "reversed" not in st]
            repeats.append((orig, rng.choice(styles) if j % 2 == 0 else ()))
    # the misses at the fixed degrees keep one order and evenly spaced
    # places: what a command costs depends on the eigenbases and conversion
    # tables earlier commands filled, and a seeded order would move that cost
    # between them.  The spacing spreads the cheap commands over the whole
    # run, so that a few seconds of a faster or slower machine do not move
    # case_p50_ms.
    fixed = sorted((m for m in misses if m["degree"] >= NABLA_FIXED_FROM),
                   key=lambda m: (m["degree"], m["entry"], NABLA_OPS.index(m["op"])))
    light = [m for m in misses if m["degree"] < NABLA_FIXED_FROM]
    rng.shuffle(light)
    step = len(misses) // len(fixed)
    for k, m in enumerate(fixed):
        light.insert(k * step, m)
    seq = [(m, ()) for m in light]
    for orig, style in repeats:
        pos = next(k for k, (c, st) in enumerate(seq) if c is orig and not st)
        seq.insert(rng.randint(pos + 1, len(seq)), (orig, style))
    cases, seen = [], set()
    for k, (c, style) in enumerate(seq):
        key = f"{c['degree']}:{c['entry']}:{c['op']}"
        text = render_expr(catalogue[str(c["degree"])][c["entry"]], style)
        cases.append({"id": k, "key": key, "degree": c["degree"], "repeat": key in seen,
                      "argv": command_argv(c["op"], text)})
        seen.add(key)
    return cases


# ---------------------------------------------------------------------------
# enumerators
# ---------------------------------------------------------------------------


def compositions(d: int):
    """All compositions of d (same set as ehall.shapes.compositions_of)."""
    if d == 0:
        return [()]
    return [(first,) + rest for first in range(d, 0, -1) for rest in compositions(d - first)]


def enumerator_cases(seed: int, classes):
    """The (m,n) pair list.

    classes is a list of [count, [[m, n], ...]]: from each, ``count`` pairs
    are drawn without replacement (see ENUM_POOL).  The pairs run in box
    order: the first pair to reach a degree fills the conversion caches for
    it, so a seeded order would move that cost between pairs.  The seed also
    picks each pair's returns_at composition, other than (d): that one asks
    for the primitive paths, which every pair computes anyway, and costs
    several times the others.
    """
    rng = random.Random(seed)
    pairs = []
    for count, members in classes:
        pairs.extend(tuple(p) for p in rng.sample(members, count))
    pairs.sort()
    return [{"id": k, "m": m, "n": n, "alpha": list(rng.choice(_returns_choices(gcd(m, n)))),
             "bizley": m >= n,
             "parking": n <= ENUM_PARKING_MAX_N}
            for k, (m, n) in enumerate(pairs)]


def _returns_choices(d: int):
    return compositions(d)[1:] if d > 1 else compositions(d)


def make_cases(workload: str, seed: int):
    ref = load_ref(workload)
    if workload == "sweep":
        return sweep_cases(seed, ref["checks"])
    if workload == "nabla-cli":
        return nabla_cases(seed, ref["catalogue"])
    if workload == "enumerators":
        return enumerator_cases(seed, ref["classes"])
    raise ValueError(f"unknown workload {workload!r}")
