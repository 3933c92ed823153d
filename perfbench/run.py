"""ugb benchmark: seeded corpora driven through ``ugb.cli.main`` in-process.

    python3 perfbench/run.py --workload pbw-check --seed 1 --seconds 20 --trace 0

Run from anywhere; the engine is imported from ``src/`` next to this
directory.  The load is a closed loop: one client, one thread, one
process, each op issued after the previous one returns.  A pass runs the
workload's fixed op list once; passes repeat while another one fits in
``--seconds``.  Outputs of the first pass are checked against known
answers after timing ends, and every later pass must reproduce them.
A fixed reference kernel (``reference.py``) is timed every few ops, and
each op time is scaled by the machine's speed around it, so the times
read as on the machine the baseline was taken on; an op's latency is
the median of its scaled times over the passes.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` the first half of the time runs untraced and the rest
traced, and the last line carries the per-layer metrics and the tracing
overhead (traced minus untraced ``wall_s``).  Spans of the first traced
pass go to ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from bisect import bisect_left, bisect_right
from pathlib import Path

import reference
import tracer
import workloads
from checks import KnownDefect, agreement

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 9
REFERENCE_EVERY = 4  # ops between two timings of the reference kernel
REFERENCE_SHARE = 0.05  # least share of a pass's time spent on the reference kernel
REFERENCE_REACH = 16  # ops on either side whose reference timings gauge an op's speed


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_engine():
    """Import ``ugb`` from this checkout's ``src/``, and only from there."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import ugb.cli
    except ImportError as exc:
        raise SystemExit(f"error: cannot import ugb from {src}: {exc}")
    if src not in Path(ugb.__file__).resolve().parents:
        raise SystemExit(f"error: ugb imported from {ugb.__file__}, not from {src}")
    return ugb.cli


IMPORT_TIMER = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); start = time.perf_counter(); "
    "import ugb.cli; print(time.perf_counter() - start)"
)


def gauged(work):
    """Run ``work()``, which returns (seconds it took, result); returns
    (those seconds, the same at the reference machine's speed, result).
    The machine's speed is gauged by a reference timing just before and
    one just after."""
    before = reference.timed()
    seconds, result = work()
    after = reference.timed()
    return seconds, seconds * reference.REFERENCE_S / ((before + after) / 2), result


def import_seconds():
    """Time to import the engine in a fresh interpreter, as measured and
    at the reference machine's speed: medians over ``SETUP_REPEATS``."""
    def once():
        done = subprocess.run([sys.executable, "-c", IMPORT_TIMER, str(ROOT / "src")],
                              capture_output=True, text=True, check=True, timeout=60)
        return float(done.stdout), None

    times = [gauged(once)[:2] for _ in range(SETUP_REPEATS)]
    return tuple(statistics.median(column) for column in zip(*times))


def call(cli, argv):
    """One op: (exit code, stdout, elapsed ns).  Unexpected exceptions are
    reported as exit code None with the exception text as output."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter_ns()
        try:
            code = cli.main(argv)
        except (Exception, SystemExit) as exc:  # SystemExit: argparse usage errors
            elapsed = time.perf_counter_ns() - start
            return None, f"{type(exc).__name__}: {exc}", elapsed
        elapsed = time.perf_counter_ns() - start
    return code, out.getvalue(), elapsed


def warmup_ops(workload):
    """The op with the smallest problem file for each subcommand, ties
    broken by label so that seeded query strings do not move the choice."""
    chosen = {}
    for op in workload.ops:
        size = (len(workload.files[op.argv[1]]), op.label)
        if op.argv[0] not in chosen or size < chosen[op.argv[0]][0]:
            chosen[op.argv[0]] = (size, op)
    return [op for _, op in chosen.values()]


def set_up(cli, name, seed, workdir, fresh_check):
    """Generate the corpus, write its files and run one warm-up op per
    subcommand; returns the workload."""
    rng = random.Random(f"{name}:{seed}")
    workload = workloads.WORKLOADS[name](rng, str(workdir), fresh_check)
    workdir.mkdir(parents=True, exist_ok=True)
    for path, text in workload.files.items():
        Path(path).write_text(text, encoding="utf-8")
    for op in warmup_ops(workload):
        call(cli, op.argv)
    return workload


class Record:
    """What the passes leave: the first pass's outputs, every op's latency
    in every pass, the ops whose output ever differed from the first pass,
    each pass's wall time and stdout bytes, and each pass's reference
    kernel times as (index of the op they preceded, seconds)."""

    def __init__(self):
        self.first = None
        self.latencies = []
        self.changed = set()
        self.walls = []
        self.emitted = []
        self.references = []

    def run_pass(self, cli, ops, wrapper=None):
        """One pass.  The reference kernel runs before every
        ``REFERENCE_EVERY``-th op, and also whenever its time in the pass
        is below ``REFERENCE_SHARE`` of the ops' time, so that a long op is
        followed by enough timings to gauge the machine around it."""
        results = []
        references = []
        ops_s = reference_s = 0.0
        start = time.perf_counter()
        for k, op in enumerate(ops):
            due = k % REFERENCE_EVERY == 0
            while due or reference_s < REFERENCE_SHARE * ops_s:
                seconds = reference.timed()
                references.append((k, seconds))
                reference_s += seconds
                due = False
            if wrapper is None:
                results.append(call(cli, op.argv))
            else:
                results.append(wrapper.op(k, lambda: call(cli, op.argv)))
            ops_s += results[-1][2] / 1e9
        self.walls.append(time.perf_counter() - start)
        self.references.append(references)
        self.latencies.append([ns for _, _, ns in results])
        self.emitted.append(sum(len(out) for _, out, _ in results))
        outputs = [(code, out) for code, out, _ in results]
        if self.first is None:
            self.first = outputs
        else:
            self.changed.update(k for k, pair in enumerate(outputs) if pair != self.first[k])

    def op_ms(self):
        """Each op's latency in ms at the reference machine's speed.  In
        each pass the op's time is scaled by ``REFERENCE_S`` over the
        median of the reference times taken within ``REFERENCE_REACH`` ops
        of it, which cancels the machine's speed at that moment; the op's
        latency is the median of its scaled times over the passes."""
        scaled = []
        for latencies, references in zip(self.latencies, self.references):
            places = [k for k, _ in references]
            row = []
            for k, ns in enumerate(latencies):
                near = references[bisect_left(places, k - REFERENCE_REACH):
                                  bisect_right(places, k + REFERENCE_REACH)]
                row.append(ns / 1e6 * reference.REFERENCE_S / statistics.median(t for _, t in near))
            scaled.append(row)
        return [statistics.median(column) for column in zip(*scaled)]

    def unscaled_ms(self):
        """Each op's median latency over the passes in ms, as measured."""
        return [statistics.median(column) / 1e6 for column in zip(*self.latencies)]


def make_fresh_check(cli, workdir):
    """A new ``check-gb`` run on a generator list, outside timing."""
    counter = [0]

    def fresh_check(header, gens):
        counter[0] += 1
        path = Path(workdir) / f"fresh{counter[0]}.gb"
        path.write_text(header + "".join(f"gen {g}\n" for g in gens), encoding="utf-8")
        code, out, _ = call(cli, ["check-gb", str(path), "--format", "records"])
        return code == 0 and json.loads(out)["verdict"] == "IsGroebner"

    return fresh_check


def judge(workload, first):
    """Check first-pass outputs; returns ({op index: problem}, defects)."""
    problems = {}
    defects = set()
    for k, (op, (code, out)) in enumerate(zip(workload.ops, first)):
        if code is None:
            problems[k] = f"raised {out}"
            continue
        try:
            message = op.check(code, out)
        except KnownDefect as exc:
            defects.add(k)
            message = f"known defect: {exc}"
        if message:
            problems[k] = message
    disagree = set(agreement(workload.remainders))
    for k, op in enumerate(workload.ops):
        if op.group in disagree:
            problems.setdefault(k, "remainders disagree across strategies")
    return problems, defects


def quantile(values, q):
    """Linear-interpolated quantile, q in [0, 1]."""
    values = sorted(values)
    pos = q * (len(values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def main(argv=None):
    args = parse_args(argv)
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    cli = import_engine()
    workdir = ROOT / ".perfbench" / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    try:
        return measure(cli, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(cli, args, workdir):
    fresh_check = make_fresh_check(cli, workdir)

    def one_set_up():
        start = time.perf_counter()
        workload = set_up(cli, args.workload, args.seed, workdir, fresh_check)
        return time.perf_counter() - start, workload

    setups = [gauged(one_set_up) for _ in range(SETUP_REPEATS)]
    workload = setups[-1][2]
    import_raw, import_scaled = import_seconds()
    setup_raw = import_raw + statistics.median(raw for raw, _, _ in setups)
    setup_s = import_scaled + statistics.median(scaled for _, scaled, _ in setups)
    ops = workload.ops

    start = time.perf_counter()
    plain, traced = Record(), Record()
    run_passes(cli, ops, plain, start + args.seconds / (1 + args.trace))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if args.trace:
        traced.first = plain.first
        fn_totals = run_traced(cli, ops, traced, start + args.seconds, args)

    problems, defects = judge(workload, plain.first)
    for k in plain.changed | traced.changed:
        problems.setdefault(k, "output differs from the first pass")
    passes = len(plain.walls) + len(traced.walls)
    attempted = len(ops) * passes
    failed = len(problems) * passes
    correct = all(k in defects for k in problems)

    print(f"workload {args.workload} seed {args.seed}: {len(ops)} ops per pass")
    print("untraced pass walls (s): " + " ".join(f"{w:.3f}" for w in plain.walls))
    for k in sorted(problems):
        print(f"  FAILED op {k} [{ops[k].label}]: {problems[k]}", file=sys.stderr)
    print(f"fail_frac {failed / attempted:.6f} ratio ({failed} failed of {attempted} attempted;"
          f" {len(defects) * passes} from the documented commutative defect)")

    latencies = plain.op_ms()
    if args.trace:
        print("traced pass walls (s): " + " ".join(f"{w:.3f}" for w in traced.walls))
        metrics = tracer.per_layer(fn_totals, len(traced.walls), traced.emitted[0])
        metrics["trace.overhead_s"] = ((sum(traced.op_ms()) - sum(latencies)) / 1e3, "s")
    else:
        raw = plain.unscaled_ms()
        timings = [t for row in plain.references for _, t in row]
        print(f"samples: {len(ops)} ops x {len(plain.walls)} passes, median of the passes per op;"
              f" {SETUP_REPEATS} set-ups; {len(timings)} reference timings")
        print(f"unscaled: setup_s {setup_raw:.6g} s, wall_s {sum(raw) / 1e3:.6g} s,"
              f" op_ms_p50 {quantile(raw, 0.5):.6g} ms, op_ms_p90 {quantile(raw, 0.9):.6g} ms;"
              f" reference kernel median {statistics.median(timings) * 1e3:.4g} ms")
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (sum(latencies) / 1e3, "s"),
            "op_ms_p50": (quantile(latencies, 0.5), "ms"),
            "op_ms_p90": (quantile(latencies, 0.9), "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def run_passes(cli, ops, record, deadline, wrapper=None, after_pass=None):
    """Passes into ``record`` while another pass as long as the last one
    ends by ``deadline`` (a ``perf_counter`` time); at least one."""
    gc.collect()
    while not record.walls or time.perf_counter() + record.walls[-1] <= deadline:
        record.run_pass(cli, ops, wrapper)
        if after_pass is not None:
            after_pass()
        gc.collect()


def run_traced(cli, ops, record, deadline, args):
    """Traced passes; returns per-function totals over all of them and
    writes the first pass's spans out.  Exits if an op's self times do not
    sum to its span."""
    wrapper = tracer.Tracer()
    totals = {}
    kept = []

    def fold():
        spans = wrapper.spans
        bad = [op for op, v in tracer.op_balance(spans, tracer.self_times(spans)).items() if v]
        if bad:
            raise SystemExit(f"error: self times do not sum to the op span for ops {bad}")
        for name, row in tracer.layer_totals(spans).items():
            acc = totals.setdefault(name, {})
            for key, value in row.items():
                acc[key] = acc.get(key, 0) + value
        if not kept:
            kept.extend(spans)
        spans.clear()

    wrapper.install()
    try:
        run_passes(cli, ops, record, deadline, wrapper, fold)
    finally:
        wrapper.uninstall()
    write_trace(args, kept, totals, ops, len(record.walls))
    return totals


def write_trace(args, spans, fn_totals, ops, passes):
    out = ROOT / ".perfbench" / f"trace-{args.workload}-s{args.seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "ops": [op.label for op in ops],
        "span_fields": ["id", "parent", "op", "name", "start_ns", "end_ns", "raised", "counts"],
        "first_pass_spans": spans,
        "per_function_per_pass": {
            name: {k: v / passes for k, v in sorted(row.items())} for name, row in sorted(fn_totals.items())
        },
    }
    out.write_text(json.dumps(doc), encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main())
