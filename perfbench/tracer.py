"""Outside-in tracing of the ``ugb`` modules.

``Tracer.install`` replaces every public function defined in a ``ugb``
module by a timing wrapper, at every module binding of it: ``cli``
imports ``check_groebner`` by name, ``GenSet.groebner_report`` imports it
lazily from ``spolys`` and ``complete`` calls the ``spolys`` global, and
all three must reach the wrapper.  Spans stay in memory as flat tuples
and are reduced to per-layer totals by :func:`layer_totals`.
"""

from __future__ import annotations

import inspect
import sys
from collections import defaultdict
from time import perf_counter_ns

# Work counts read off each layer's returned objects (and arguments).
COUNTERS = {
    "division.divide": lambda args, r: {"steps": len(r.steps), "remainder_terms": len(r.remainder.terms)},
    "spolys.s_polynomials": lambda args, r: {"pairs": len(r)},
    "spolys.check_groebner": lambda args, r: {"pairs_checked": r.pairs_checked, "nonzero": len(r.witnesses)},
    "spolys.complete": lambda args, r: {"adjoined": len(r.gens) - len(args[0].gens)},
    "quotient.enumerate_basis": lambda args, r: {"words": r.total()},
    "membership.build_truncation": lambda args, r: {"rows": len(r.rows), "cols": len(r.columns)},
    "membership.is_member": lambda args, r: {"witness_terms": len(r.witness) if r.member else 0},
    "pbw.validate_lie": lambda args, r: {"triples": args[0].rank ** 3},
}

PARSE = {"textio.load_problem", "textio.parse_problem", "textio.parse_poly"}

# Leaf helpers cheaper than a wrapper call and called per generator pair
# or per polynomial addition (hundreds of thousands of times a pass).
# They stay unwrapped: their time counts to the caller's self time.
LEAVES = {"words.overlaps", "words.factorizations", "words.contains_factor", "poly.ensure_same_algebra"}

# Span tuple fields.
SID, PARENT, OP, NAME, START, END, RAISED, COUNTS = range(8)


def _layer(fn):
    """``module.function`` without the package prefix."""
    return fn.__module__.split(".", 1)[1] + "." + fn.__name__


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._op = None
        self._patched = []

    def install(self, package="ugb"):
        """Wrap every public function of every loaded ``package`` module."""
        modules = [m for n, m in sorted(sys.modules.items()) if n == package or n.startswith(package + ".")]
        wrappers = {}
        for module in modules:
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or not inspect.isfunction(obj):
                    continue
                if not obj.__module__.startswith(package + ".") or _layer(obj) in LEAVES:
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self._wrap(obj)
                self._patched.append((module, name, obj))
                setattr(module, name, wrappers[obj])

    def uninstall(self):
        for module, name, obj in reversed(self._patched):
            setattr(module, name, obj)
        self._patched.clear()

    def _wrap(self, fn):
        layer = _layer(fn)
        counter = COUNTERS.get(layer)
        spans = self.spans
        stack = self._stack

        def wrapper(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1] if stack else None
            spans.append(None)
            stack.append(sid)
            raised = False
            result = None
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException:
                raised = True
                raise
            finally:
                end = perf_counter_ns()
                stack.pop()
                counts = counter(args, result) if counter and not raised else None
                spans[sid] = (sid, parent, self._op, layer, start, end, raised, counts)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def op(self, op_id, call):
        """Run ``call()`` as the root span of op ``op_id``."""
        self._op = op_id
        sid = len(self.spans)
        self.spans.append(None)
        self._stack.append(sid)
        start = perf_counter_ns()
        try:
            return call()
        finally:
            end = perf_counter_ns()
            self._stack.pop()
            self.spans[sid] = (sid, None, op_id, "op", start, end, False, None)


def self_times(spans):
    """Self time of each span in ns: its duration minus the part of it that
    its children cover.  Spans must be in start order (as recorded)."""
    children = defaultdict(list)
    for s in spans:
        if s[PARENT] is not None:
            children[s[PARENT]].append(s)
    out = {}
    for s in spans:
        covered = 0
        reach = s[START]
        for c in sorted(children[s[SID]], key=lambda c: c[START]):
            lo = max(c[START], reach, s[START])
            hi = min(c[END], s[END])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s[SID]] = s[END] - s[START] - covered
    return out


def op_balance(spans, selfs):
    """Per op: its root span's duration minus the sum of the self times of
    all its spans; 0 when the self-time accounting is exact."""
    roots = {s[OP]: s[END] - s[START] for s in spans if s[NAME] == "op"}
    total = defaultdict(int)
    for s in spans:
        total[s[OP]] += selfs[s[SID]]
    return {op: roots[op] - total[op] for op in roots}


def layer_totals(spans):
    """Per-function and per-layer sums over ``spans``: self ns, calls,
    raised counts and work counts, plus completion rounds (check_groebner
    calls under a complete call)."""
    selfs = self_times(spans)
    by_id = {s[SID]: s for s in spans}
    fn = defaultdict(lambda: defaultdict(int))
    for s in spans:
        row = fn[s[NAME]]
        row["calls"] += 1
        row["self_ns"] += selfs[s[SID]]
        row["raised"] += s[RAISED]
        for k, v in (s[COUNTS] or {}).items():
            row[k] += v
        if s[NAME] == "spolys.check_groebner" and _under(s, "spolys.complete", by_id):
            fn["spolys.complete"]["rounds"] += 1
    return fn


def _under(span, name, by_id):
    parent = span[PARENT]
    while parent is not None:
        p = by_id[parent]
        if p[NAME] == name:
            return True
        parent = p[PARENT]
    return False


def per_layer(fn, passes, emitted_bytes):
    """The benchmark's per-layer metrics, per pass over the op list;
    ``emitted_bytes`` is the stdout of one pass."""

    def total(name, key):
        return fn.get(name, {}).get(key, 0) / passes

    def ms(name):
        return total(name, "self_ns") / 1e6

    def group_ms(pred):
        return sum(row["self_ns"] for n, row in fn.items() if pred(n)) / 1e6 / passes

    emit = lambda n: n.startswith(("textio.format_", "textio.record_"))
    pairs_checked = total("spolys.check_groebner", "pairs_checked")
    steps = total("division.divide", "steps")
    metrics = {
        "cli.main.self_ms": (ms("cli.main"), "ms"),
        "textio.parse.self_ms": (group_ms(lambda n: n in PARSE), "ms"),
        "textio.emit.self_ms": (group_ms(emit), "ms"),
        "textio.emit.bytes": (emitted_bytes, "bytes"),
        "pbw.validate_lie.self_ms": (ms("pbw.validate_lie"), "ms"),
        "pbw.validate_lie.triples": (total("pbw.validate_lie", "triples"), "count"),
        "pbw.pbw_generators.self_ms": (ms("pbw.pbw_generators"), "ms"),
        "spolys.s_polynomials.self_ms": (ms("spolys.s_polynomials"), "ms"),
        "spolys.pairs": (total("spolys.s_polynomials", "pairs"), "count"),
        "spolys.check_groebner.calls": (total("spolys.check_groebner", "calls"), "count"),
        "spolys.check_groebner.self_ms": (ms("spolys.check_groebner"), "ms"),
        "spolys.zero_pair_frac": (
            (pairs_checked - total("spolys.check_groebner", "nonzero")) / pairs_checked if pairs_checked else 0.0,
            "ratio",
        ),
        "spolys.complete.rounds": (total("spolys.complete", "rounds"), "count"),
        "spolys.complete.adjoined": (total("spolys.complete", "adjoined"), "count"),
        "spolys.complete.self_ms": (ms("spolys.complete"), "ms"),
        "division.divide.calls": (total("division.divide", "calls"), "count"),
        "division.divide.self_ms": (ms("division.divide"), "ms"),
        "division.steps": (steps, "count"),
        "division.us_per_step": (ms("division.divide") * 1e3 / steps if steps else 0.0, "us"),
        "division.remainder_terms": (total("division.divide", "remainder_terms"), "count"),
        "quotient.enumerate_basis.self_ms": (ms("quotient.enumerate_basis"), "ms"),
        "quotient.words": (total("quotient.enumerate_basis", "words"), "count"),
        "quotient.decompose.self_ms": (ms("quotient.decompose"), "ms"),
        "membership.build_truncation.self_ms": (ms("membership.build_truncation"), "ms"),
        "membership.rows": (total("membership.build_truncation", "rows"), "count"),
        "membership.cols": (total("membership.build_truncation", "cols"), "count"),
        "membership.is_member.self_ms": (ms("membership.is_member"), "ms"),
        "membership.witness_terms": (total("membership.is_member", "witness_terms"), "count"),
    }
    for name in RAISED_METRICS:
        metrics[name + ".raised"] = (total(name, "raised"), "count")
    return metrics


# Functions whose raised counts are reported as metrics; every wrapped
# function's count is in the written trace summary.
RAISED_METRICS = (
    "cli.main",
    "textio.load_problem",
    "textio.parse_poly",
    "pbw.verify_pbw",
    "spolys.check_groebner",
    "spolys.complete",
    "division.divide",
    "quotient.enumerate_basis",
    "quotient.decompose",
    "membership.build_truncation",
    "membership.is_member",
)
