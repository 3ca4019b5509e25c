"""Spans around ehall's public functions, put on from outside the package.

``install`` replaces every binding of each traced function: module globals
in every ``ehall`` module (so ``symfun.mul`` and ``ehallops.mul`` are both
covered), values of module-level dicts, and methods on the class for
``SymFun`` and ``QTScalar``.  Each call records a span (name, start, end,
parent span, case id) in flat arrays; the worker writes them to a file when
its pass ends and ``aggregate`` turns them into per-function call counts and
self times (duration minus the time covered by child spans).
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter, defaultdict
from time import perf_counter

QT_ARITH = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
            "__truediv__", "__rtruediv__", "inverse", "__pow__")

#: metric prefix -> the functions it covers, as (module, name) for a module
#: function or (module, class, method) for a method
TRACED = {
    "coeffs.poly_gcd": [("coeffs", "poly_gcd")],
    "coeffs.QTScalar.arith": [("coeffs", "QTScalar", m) for m in QT_ARITH],
    "coeffs.QTScalar.specialize": [("coeffs", "QTScalar", "specialize")],
    "symfun.convert": [("symfun", "SymFun", "convert")],
    "symfun.mul": [("symfun", "mul")],
    "symfun.plethys": [("symfun", "plethys")],
    "symfun.expand_in_q": [("symfun", "expand_in_q")],
    "ehallops.apply_D": [("ehallops", "apply_D")],
    "ehallops.apply_Q": [("ehallops", "apply_Q")],
    "ehallops.theta": [("ehallops", "theta")],
    "ehallops.c_op": [("ehallops", "c_op")],
    "macdonald.eigenbasis": [("macdonald", "eigenbasis")],
    "macdonald.nabla": [("macdonald", "nabla")],
    "macdonald.expand_in_eigenbasis": [("macdonald", "expand_in_eigenbasis")],
    "linalg.inverse": [("linalg", "inverse")],
    "linalg.nullspace": [("linalg", "nullspace")],
    "rectcomb.enumerate_paths": [("rectcomb", "enumerate_paths")],
    "rectcomb.path_enumerator": [("rectcomb", "path_enumerator")],
    "rectcomb.parking": [("rectcomb", "parking")],
    "rectcomb.bizley": [("rectcomb", "bizley")],
    "ctengine.ct_t1": [("ctengine", "ct_t1")],
    "checks.verdict": [("checks", "is_schur_positive"), ("checks", "is_e_positive")],
    "checks.specialize": [("checks", "at_t1"), ("checks", "at_t1r"), ("checks", "at_qt1")],
    "cli.main": [("cli", "main")],
    "cli.parse_expr": [("cli", "parse_expr")],
    "cli.cache_get": [("cli", "cache_get")],
    "cli.cache_put": [("cli", "cache_put")],
}

#: metrics read from the program's state, not from spans (unit per name)
GAUGES = {
    "symfun.lru_entries": "count",
    "ehallops.apply_Q.memo_hit_ratio": "ratio",
    "ehallops.apply_Q.memo_entries": "count",
    "macdonald.eigenbasis.misses": "count",
    "cli.cache_hit_ratio": "ratio",
    "trace.overhead_s": "s",
}


def per_layer_units() -> dict:
    """Every per-layer metric name the traced run reports, with its unit."""
    units = {}
    for prefix in TRACED:
        units[prefix + ".calls"] = "count"
        units[prefix + ".self_s"] = "s"
    units.update(GAUGES)
    return units


class Tracer:
    """Span store: one entry per traced call, in flat arrays."""

    def __init__(self):
        self.names: list[str] = []
        self.name_of = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.case = array("q")
        self.case_id = -1
        self.counters = Counter()
        self._stack: list[int] = []

    def wrap(self, name: str, fn, before=None, after=None):
        """fn wrapped in a span named name.

        before() runs ahead of the call and after(token, result) behind it;
        they let a metric be counted where the work happens.
        """
        if name not in self.names:
            self.names.append(name)
        idx = self.names.index(name)
        name_of, start, end, parent, case, stack = (
            self.name_of, self.start, self.end, self.parent, self.case, self._stack)

        def traced(*args, **kwargs):
            token = before() if before else None
            i = len(start)
            name_of.append(idx)
            parent.append(stack[-1] if stack else -1)
            case.append(self.case_id)
            start.append(0.0)
            end.append(0.0)
            stack.append(i)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = perf_counter()
                start[i] = t0
                stack.pop()
            if after:
                after(token, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def write(self, path: str) -> int:
        """Write the spans (arrays back to back) and return their count."""
        with open(path, "wb") as fh:
            for arr in (self.name_of, self.start, self.end, self.parent, self.case):
                arr.tofile(fh)
        return len(self.start)


def read_spans(path: str, count: int):
    """(name_of, start, end, parent, case) arrays as written by Tracer.write."""
    arrays = [array("H"), array("d"), array("d"), array("q"), array("q")]
    with open(path, "rb") as fh:
        for arr in arrays:
            arr.fromfile(fh, count)
    return arrays


def aggregate(names, name_of, start, end, parent):
    """Per span name: (calls, self time in seconds).

    Self time is the span's duration minus the durations of its direct
    children; spans nest strictly, so that is the time no child covers.
    """
    n = len(start)
    child = [0.0] * n
    for i in range(n):
        p = parent[i]
        if p >= 0:
            child[p] += end[i] - start[i]
    calls = Counter()
    self_s = defaultdict(float)
    for i in range(n):
        name = names[name_of[i]]
        calls[name] += 1
        self_s[name] += end[i] - start[i] - child[i]
    return {name: (calls[name], self_s[name]) for name in calls}


def _targets(spec):
    module = sys.modules["ehall." + spec[0]]
    if len(spec) == 2:
        return module, spec[1], getattr(module, spec[1])
    cls = getattr(module, spec[1])
    return cls, spec[2], cls.__dict__[spec[2]]


def install(tracer: Tracer):
    """Wrap every traced function wherever ehall binds it.

    Returns the originals by metric prefix, for reading cache statistics.
    """
    from ehall import cli, ehallops  # noqa: F401  (loads every layer)

    memo = ehallops._apply_memo
    counters = tracer.counters

    def count_get(_token, result):
        counters["cli.cache_get"] += 1
        counters["cli.cache_get.hits"] += result is not None

    def count_apply_q(memo_size, _result):
        # a call that leaves the memo as large as it found it was a hit
        counters["ehallops.apply_Q"] += 1
        counters["ehallops.apply_Q.memo_hits"] += len(memo) == memo_size

    hooks = {"cli.cache_get": (None, count_get),
             "ehallops.apply_Q": (lambda: len(memo), count_apply_q)}
    modules = [m for name, m in sys.modules.items() if name == "ehall" or name.startswith("ehall.")]
    originals = {}
    for prefix, specs in TRACED.items():
        before, after = hooks.get(prefix, (None, None))
        for spec in specs:
            owner, attr, fn = _targets(spec)
            originals.setdefault(prefix, fn)
            wrapper = tracer.wrap(prefix, fn, before, after)
            if isinstance(owner, type):
                setattr(owner, attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, key, wrapper)
                    elif isinstance(value, dict):
                        for k, v in list(value.items()):
                            if v is fn:
                                value[k] = wrapper
    return originals


def gauges(tracer: Tracer, originals) -> dict:
    """The GAUGES read from outside the program (all but trace.overhead_s)."""
    from ehall import ehallops, symfun

    c = tracer.counters
    lru = [v for v in vars(symfun).values() if hasattr(v, "cache_info")]
    return {
        "symfun.lru_entries": sum(f.cache_info().currsize for f in lru),
        "ehallops.apply_Q.memo_hit_ratio": _ratio(c["ehallops.apply_Q.memo_hits"],
                                                  c["ehallops.apply_Q"]),
        "ehallops.apply_Q.memo_entries": len(ehallops._apply_memo),
        "macdonald.eigenbasis.misses": originals["macdonald.eigenbasis"].cache_info().misses,
        "cli.cache_hit_ratio": _ratio(c["cli.cache_get.hits"], c["cli.cache_get"]),
    }


def _ratio(part, whole):
    return part / whole if whole else 0.0
