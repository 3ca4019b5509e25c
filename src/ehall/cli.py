"""Command-line front end: expression expansion, operator application,
path combinatorics, the verification harness, and a content-addressed
result cache.

Exit codes: 0 ok, 1 usage or arithmetic error (division by zero, a pole),
2 verification failure (non-conjectural), 3 internal assertion failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
import time
from functools import lru_cache

from . import checks, ctengine, ehallops, macdonald, rectcomb, symfun
from .coeffs import QT_ONE, QT_Q, QT_T, QTScalar
from .ehallops import CALIBRATION_VERSION
from .symfun import SymFun


# ---------------------------------------------------------------------------
# expression grammar
#
#   expr   := term (('+'|'-') term)*
#   term   := factor (('*'|'/')? factor)*        (implicit multiplication)
#   factor := ('-'|'+')* atom ('^' ('-')? INT)?
#   atom   := '(' expr ')' | INT | BASIS '[' digits-or-comma-list ']' | 'q' | 't'
# ---------------------------------------------------------------------------


class ParseError(ValueError):
    pass


def _tokenize(text: str):
    tokens = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
        elif c.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(("int", int(text[i:j])))
            i = j
        elif c.isalpha():
            tokens.append(("name", c))
            i += 1
        elif c in "+-*/^()[],":
            tokens.append((c, c))
            i += 1
        else:
            raise ParseError(f"unexpected character {c!r}")
    tokens.append(("end", None))
    return tokens


class _Parser:
    def __init__(self, text):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos][0]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, got {tok[1]!r}")
        return tok

    def parse(self):
        v = self.expr()
        if self.peek() != "end":
            raise ParseError(f"trailing input at {self.tokens[self.pos][1]!r}")
        return v

    def expr(self):
        v = self.term()
        while self.peek() in ("+", "-"):
            op = self.next()[0]
            rhs = self.term()
            v = _add(v, rhs) if op == "+" else _add(v, _neg(rhs))
        return v

    def term(self):
        v = self.factor()
        while True:
            k = self.peek()
            if k in ("*", "/"):
                op = self.next()[0]
                rhs = self.factor()
                v = _mul(v, rhs) if op == "*" else _div(v, rhs)
            elif k in ("name", "int", "("):
                v = _mul(v, self.factor())
            else:
                return v

    def factor(self):
        sign = 1
        while self.peek() in ("+", "-"):
            if self.next()[0] == "-":
                sign = -sign
        v = self.atom()
        if self.peek() == "^":
            self.next()
            esign = 1
            while self.peek() in ("+", "-"):
                if self.next()[0] == "-":
                    esign = -esign
            n = esign * self.expect("int")[1]
            v = _pow(v, n)
        return v if sign == 1 else _neg(v)

    def atom(self):
        kind, val = self.next()
        if kind == "(":
            v = self.expr()
            self.expect(")")
            return v
        if kind == "int":
            return QTScalar(val)
        if kind == "name":
            if self.peek() == "[":
                return self.generator(val)
            if val == "q":
                return QT_Q
            if val == "t":
                return QT_T
            raise ParseError(f"unknown scalar {val!r}")
        raise ParseError(f"unexpected token {val!r}")

    def generator(self, basis):
        self.expect("[")
        ints = []
        has_comma = False
        while True:
            kind, val = self.next()
            if kind == "]":
                break
            if kind == ",":
                has_comma = True
                continue
            if kind != "int":
                raise ParseError(f"bad index {val!r}")
            ints.append(val)
        if has_comma:
            parts = ints  # comma form: each integer is a part (allows >= 10)
        else:
            parts = [int(ch) for v in ints for ch in str(v)]
        if 0 in parts:
            raise ParseError("partition parts must be positive")
        mu = tuple(sorted(parts, reverse=True))
        if basis in "ehpq" and len(mu) == 1:
            return {"e": symfun.e_, "h": symfun.h_, "p": symfun.p_,
                    "q": symfun.q_d}[basis](mu[0])
        if basis in "smehpq":
            if basis == "q":
                return symfun.q_mu(mu)
            return SymFun(basis, {mu: QT_ONE})
        raise ParseError(f"unknown basis {basis!r}")


def _as_symfun(x):
    return x if isinstance(x, SymFun) else SymFun("p", {(): x})


def _add(a, b):
    if isinstance(a, QTScalar) and isinstance(b, QTScalar):
        return a + b
    return _as_symfun(a) + _as_symfun(b)


def _neg(a):
    return -a


def _mul(a, b):
    if isinstance(a, QTScalar) and isinstance(b, QTScalar):
        return a * b
    if isinstance(a, QTScalar):
        return b.scale(a)
    if isinstance(b, QTScalar):
        return a.scale(b)
    return symfun.mul(a, b)


def _div(a, b):
    if not isinstance(b, QTScalar):
        raise ParseError("division only by scalars")
    return _mul(a, b.inverse())


def _pow(a, n):
    if isinstance(a, QTScalar):
        return a**n
    if n < 0:
        raise ParseError("negative powers of symmetric functions")
    out = SymFun.one(a.basis)
    for _ in range(n):
        out = symfun.mul(out, a)
    return out


def parse_expr(text: str):
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# cache
# ---------------------------------------------------------------------------


def cache_dir() -> str:
    return os.environ.get("EHALL_CACHE_DIR", os.path.join(".", ".ehall-cache"))


def cache_key(tag: str, params) -> str:
    payload = json.dumps([CALIBRATION_VERSION, tag, params], sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def cache_get(key: str):
    path = os.path.join(cache_dir(), key + ".json")
    if not os.path.exists(path):
        return None
    try:
        with open(path) as fh:
            entry = json.load(fh)
        if entry.get("meta", {}).get("version") != CALIBRATION_VERSION:
            return None
        return entry["value"]
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
        _warn_corrupt(key, exc)
        return None


def _warn_corrupt(key: str, exc: Exception):
    print(f"warning: ignoring corrupt cache entry {key}: {exc}", file=sys.stderr)


def cache_put(key: str, value, millis: int = 0):
    d = cache_dir()
    os.makedirs(d, exist_ok=True)
    entry = {"value": value, "meta": {"version": CALIBRATION_VERSION, "millis": millis}}
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(json.dumps(entry, sort_keys=True))
        os.replace(tmp, os.path.join(d, key + ".json"))
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _cached_symfun(tag, params, compute, use_cache):
    if not use_cache:
        return compute()
    key = cache_key(tag, params)
    hit = cache_get(key)
    if hit is not None:
        try:
            return SymFun.from_json(hit)
        except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
            _warn_corrupt(key, exc)  # recomputed and rewritten below
    t0 = time.monotonic()
    result = compute()
    try:
        cache_put(key, result.to_json(), int((time.monotonic() - t0) * 1000))
    except OSError as exc:  # an unusable cache directory loses no result
        print(f"warning: cache not written: {exc}", file=sys.stderr)
    return result


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------


def _emit_symfun(f: SymFun, args):
    if args.latex:
        print(symfun.to_latex(f))
    else:
        print(json.dumps(f.to_json()))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_expand(args):
    v = parse_expr(args.expr)
    if isinstance(v, QTScalar):
        print(json.dumps({"scalar": v.to_json()}) if not args.latex else repr(v))
        return 0
    _emit_symfun(v.convert(args.basis), args)
    return 0


#: "qt=1" sets t = 1/q (the product qt is 1), not q = t = 1 as checks.at_qt1
_SPECIALIZE = {
    "t=1": checks.at_t1,
    "qt=1": lambda f: symfun.specialize_coeffs(f, {"t": QT_Q.inverse()}),
    "t=1+r": checks.at_t1r,
}


def _cmd_theta(args):
    a, b = (int(x) for x in args.ab.split(","))
    seed = _as_symfun(parse_expr(args.seed))
    arg = _as_symfun(parse_expr(args.arg)) if args.arg else None
    params = {"seed": seed.to_json(), "a": a, "b": b,
              "arg": arg.to_json() if arg else None}
    f = _cached_symfun("theta", params,
                       lambda: ehallops.theta(a, b, seed, arg), not args.no_cache)
    if args.at:
        f = _SPECIALIZE[args.at](f)
    _emit_symfun(f.convert(args.basis), args)
    return 0


def _cmd_nabla(args):
    f = _as_symfun(parse_expr(args.expr))
    params = {"f": f.to_json(), "power": args.power}
    g = _cached_symfun("nabla", params,
                       lambda: macdonald.nabla(f, power=args.power), not args.no_cache)
    _emit_symfun(g.convert(args.basis), args)
    return 0


def _cmd_dyck(args):
    returns_at = tuple(int(x) for x in args.returns.split(",")) if args.returns else None
    paths = rectcomb.enumerate_paths(args.m, args.n, returns_at)
    out = {"m": args.m, "n": args.n,
           "words": ["".join(map(str, p.word)) if max(p.word, default=0) < 10
                     else ",".join(map(str, p.word)) for p in paths],
           "count": len(paths)}
    if args.enumerator:
        f = rectcomb.path_enumerator(args.m, args.n, returns_at)
        out["enumerator"] = f.to_json()
        if args.latex:
            out["latex"] = symfun.to_latex(f)
    if args.parking:
        out["parking"] = [
            {"word": list(pf.word()), "labels": list(pf.labels),
             "descentComp": list(rectcomb.descent_comp(pf))}
            for p in paths for pf in rectcomb.parking(p)
        ]
    print(json.dumps(out))
    return 0


def _cmd_ct(args):
    f = ctengine.ct_t1(args.m, args.n, primitive=args.primitive)
    _emit_symfun(f.convert(args.basis), args)
    return 0


def _cmd_check(args):
    names = sorted(checks.CHECKS) if args.name == "all" else [args.name]
    verdicts = []
    for n in names:
        verdicts.extend(checks.run_check(n, args.grid))
    report = checks.report_json(verdicts)
    if args.report:
        with open(args.report, "w") as fh:
            fh.write(report)
    else:
        print(report)
    return checks.exit_code(verdicts)


def _cmd_cache(args):
    d = cache_dir()
    if args.action == "clear":
        n = 0
        if os.path.isdir(d):
            for name in os.listdir(d):
                if name.endswith(".json"):
                    os.unlink(os.path.join(d, name))
                    n += 1
        print(json.dumps({"cleared": n}))
        return 0
    entries = [n for n in os.listdir(d) if n.endswith(".json")] if os.path.isdir(d) else []
    size = sum(os.path.getsize(os.path.join(d, n)) for n in entries)
    print(json.dumps({"dir": d, "entries": len(entries), "bytes": size,
                      "version": CALIBRATION_VERSION}))
    return 0


# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def build_parser():
    """The argument parser, built once per process: parsing leaves it unchanged."""
    ap = argparse.ArgumentParser(prog="ehall", description=__doc__)
    sub = ap.add_subparsers(dest="cmd", required=True)

    def common(p):
        p.add_argument("--latex", action="store_true", help="paper-style display")
        p.add_argument("--no-cache", action="store_true")
        p.add_argument("--basis", default="s", choices=list("mehpsq"))

    p = sub.add_parser("expand", help="expand an expression in a basis")
    p.add_argument("expr")
    common(p)
    p.set_defaults(fn=_cmd_expand)

    p = sub.add_parser("theta", help="apply Theta_(a,b)(seed) to 1 (or to --arg)")
    p.add_argument("--seed", required=True)
    p.add_argument("--ab", required=True, metavar="A,B")
    p.add_argument("--arg")
    p.add_argument("--at", choices=sorted(_SPECIALIZE),
                   help="specialize the result: t=1; qt=1 sets t = 1/q (not q = t = 1); "
                        "t=1+r writes t = 1+r with r in the t slot")
    common(p)
    p.set_defaults(fn=_cmd_theta)

    p = sub.add_parser("nabla", help="apply nabla^power")
    p.add_argument("expr")
    p.add_argument("--power", type=int, default=1)
    common(p)
    p.set_defaults(fn=_cmd_nabla)

    p = sub.add_parser("dyck", help="enumerate (m,n)-Dyck paths")
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    p.add_argument("--returns", metavar="ALPHA")
    p.add_argument("--enumerator", action="store_true")
    p.add_argument("--parking", action="store_true")
    p.add_argument("--latex", action="store_true")
    p.set_defaults(fn=_cmd_dyck)

    p = sub.add_parser("ct", help="t=1 constant-term enumerator")
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    p.add_argument("--primitive", action="store_true")
    common(p)
    p.set_defaults(fn=_cmd_ct)

    p = sub.add_parser("check", help="run a named verification check (or 'all')")
    p.add_argument("name")
    p.add_argument("--grid", type=int, default=4, help="total-degree ceiling")
    p.add_argument("--report", metavar="FILE")
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("cache", help="cache statistics or clearing")
    p.add_argument("action", choices=["stats", "clear"])
    p.set_defaults(fn=_cmd_cache)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code else 0
    try:
        return args.fn(args)
    except (ParseError, ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except AssertionError as exc:
        print(f"internal assertion failed: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
