"""Tests of the benchmark itself.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

They check that corpora are deterministic per seed, that scaling by the
reference kernel cancels the machine's speed, that the tracer's
self-time arithmetic is exact, and that every known-answer checker
accepts the engine's real answer and rejects a corrupted one.
"""

from __future__ import annotations

import json
import random
import shutil
import unittest
from fractions import Fraction

import checks
import corpus
import reference
import run
import tracer
import workloads
from algebra import Ring, parse_text, to_text

CLI = run.import_engine()


class Scratch:
    """A problem-file directory inside the checkout, removed afterwards."""

    def __init__(self, name):
        self.dir = run.ROOT / ".perfbench" / f"test-{name}"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.count = 0

    def file(self, text):
        self.count += 1
        path = self.dir / f"p{self.count}.txt"
        path.write_text(text, encoding="utf-8")
        return str(path)

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


def build(name, seed):
    return workloads.WORKLOADS[name](random.Random(f"{name}:{seed}"), "/w", lambda header, gens: True)


class DeterminismTest(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for name in workloads.WORKLOADS:
            a, b = build(name, 5), build(name, 5)
            self.assertEqual(a.files, b.files, name)
            self.assertEqual([op.argv for op in a.ops], [op.argv for op in b.ops], name)

    def test_seed_moves_inputs_not_sizes(self):
        for name in workloads.WORKLOADS:
            a, b = build(name, 5), build(name, 6)
            self.assertNotEqual((a.files, [op.argv for op in a.ops]), (b.files, [op.argv for op in b.ops]), name)
            self.assertEqual([op.label for op in a.ops], [op.label for op in b.ops], name)
            self.assertGreaterEqual(len(a.ops), 100, name)

    def test_gl_counts(self):
        lie = corpus.gl(3, "Z")
        self.assertEqual(lie.rank, 9)
        self.assertEqual(lie.jacobi_violations(), [])
        self.assertEqual(len(lie.generators()), 36)
        broken = corpus.perturb(lie, random.Random(1))
        self.assertTrue(broken.jacobi_violations())


class ScalingTest(unittest.TestCase):
    """Op times scaled by the reference kernel's times around them come
    out the same whatever the machine's speed was at the moment."""

    COSTS_MS = [1 + k % 7 for k in range(60)]

    def record(self, slowdowns):
        """One pass per entry of ``slowdowns``: a function from op index to
        how much slower the machine ran there."""
        record = run.Record()
        for slow in slowdowns:
            record.latencies.append([round(ms * 1e6 * slow(k)) for k, ms in enumerate(self.COSTS_MS)])
            record.references.append([(k, reference.REFERENCE_S * slow(k))
                                      for k in range(0, len(self.COSTS_MS), run.REFERENCE_EVERY)])
        return record

    def test_whole_passes_at_different_speeds(self):
        record = self.record([lambda k: 1.0, lambda k: 1.6, lambda k: 1.3])
        for got, want in zip(record.op_ms(), self.COSTS_MS):
            self.assertAlmostEqual(got, want, places=6)

    def test_slow_stretch_inside_a_pass(self):
        edge = 28
        record = self.record([lambda k: 1.6 if k >= edge else 1.0] * 3)
        got = record.op_ms()
        clear = [k for k in range(len(got)) if abs(k - edge) > run.REFERENCE_REACH]
        self.assertTrue(clear)
        for k in clear:
            self.assertAlmostEqual(got[k], self.COSTS_MS[k], places=6)

    def test_gauged_work(self):
        timed = reference.timed
        reference.timed = lambda: 2 * reference.REFERENCE_S
        try:
            self.assertEqual(run.gauged(lambda: (0.3, "result")), (0.3, 0.15, "result"))
        finally:
            reference.timed = timed


class SelfTimeTest(unittest.TestCase):
    S = staticmethod(lambda sid, parent, name, start, end, counts=None: (sid, parent, 0, name, start, end, False, counts))

    def test_nested_spans(self):
        S = self.S
        spans = [
            S(0, None, "op", 0, 100),
            S(1, 0, "cli.main", 10, 90),
            S(2, 1, "spolys.complete", 20, 80, {"adjoined": 2}),
            S(3, 2, "spolys.check_groebner", 25, 40),
            S(4, 3, "division.divide", 30, 35, {"steps": 7}),
            S(5, 2, "spolys.check_groebner", 45, 70),
        ]
        selfs = tracer.self_times(spans)
        self.assertEqual(selfs, {0: 20, 1: 20, 2: 20, 3: 10, 4: 5, 5: 25})
        self.assertEqual(tracer.op_balance(spans, selfs), {0: 0})
        totals = tracer.layer_totals(spans)
        self.assertEqual(totals["spolys.complete"]["rounds"], 2)
        self.assertEqual(totals["spolys.check_groebner"]["self_ns"], 35)
        self.assertEqual(totals["division.divide"]["steps"], 7)

    def test_overlapping_children_count_once(self):
        S = self.S
        spans = [S(0, None, "op", 0, 10), S(1, 0, "a", 2, 6), S(2, 0, "b", 4, 8)]
        self.assertEqual(tracer.self_times(spans)[0], 4)

    def test_install_wraps_every_binding(self):
        import ugb.cli
        import ugb.spolys

        original = ugb.spolys.check_groebner
        t = tracer.Tracer()
        t.install()
        try:
            self.assertIs(ugb.cli.check_groebner, ugb.spolys.check_groebner)
            self.assertIs(ugb.spolys.check_groebner.__wrapped__, original)
        finally:
            t.uninstall()
        self.assertIs(ugb.spolys.check_groebner, original)
        self.assertIs(ugb.cli.check_groebner, original)


class CheckerTest(unittest.TestCase):
    def setUp(self):
        self.scratch = Scratch(self.id().rsplit(".", 1)[-1])

    def tearDown(self):
        self.scratch.close()

    def run_cli(self, *argv):
        code, out, _ = run.call(CLI, [str(a) for a in argv] + ["--format", "records"])
        return code, out

    def assert_rejects(self, check, code, out):
        self.assertIsNotNone(check(code, out))

    def corrupt(self, out, edit):
        rec = json.loads(out)
        edit(rec)
        return json.dumps(rec)

    def test_pbw(self):
        lie = corpus.gl(2, "Q")
        path = self.scratch.file(lie.lie_text())
        code, out = self.run_cli("pbw", path, "--max-deg", 3)
        check = checks.pbw(lie, 3)
        self.assertIsNone(check(code, out))
        self.assert_rejects(check, code, self.corrupt(out, lambda r: r["counts"].__setitem__(3, 21)))
        self.assert_rejects(check, 1, out)
        broken = corpus.perturb(lie, random.Random(2))
        code, out = self.run_cli("pbw", self.scratch.file(broken.lie_text()), "--max-deg", 3)
        self.assertIsNone(checks.pbw(broken, 3)(code, out))
        self.assert_rejects(checks.pbw(broken, 3), code, self.corrupt(out, lambda r: r["jacobi_violations"].pop()))

    def test_check_gb_and_spolys(self):
        lie = corpus.perturb(corpus.gl(2, "Z/4"), random.Random(3))
        path = self.scratch.file(lie.gens_text())
        code, out = self.run_cli("check-gb", path)
        self.assertIsNone(checks.check_gb(lie)(code, out))
        self.assert_rejects(checks.check_gb(lie), code, self.corrupt(out, lambda r: r["witnesses"].pop()))
        code, out = self.run_cli("spolys", path)
        self.assertIsNone(checks.spolys(lie)(code, out))

        def flip(rec):
            sp = rec["s_polynomials"][0]
            sp["value"] = sp["value"] + " + 1"

        self.assert_rejects(checks.spolys(lie), code, self.corrupt(out, flip))

    def test_quotient(self):
        lie = corpus.gl(2, "Z")
        code, out = self.run_cli("quotient-basis", self.scratch.file(lie.gens_text()), "--max-deg", 2)
        check = checks.quotient(lie, 2)
        self.assertIsNone(check(code, out))
        self.assert_rejects(check, code, self.corrupt(out, lambda r: r["by_degree"]["2"].__setitem__(0, "e22 e11")))

    def test_commutative_defect_is_recognised(self):
        names = ["x", "y", "z"]
        ms = ((0, 2),)
        code, out = self.run_cli("quotient-basis", self.scratch.file(corpus.monomial_text(ms, names)), "--max-deg", 3)
        check = checks.commutative_quotient(ms, 3, 3)
        with self.assertRaises(checks.KnownDefect):
            check(code, out)
        self.assert_rejects(check, code, self.corrupt(out, lambda r: r["counts"].__setitem__(3, 9)))
        clean = ((0, 1),)
        code, out = self.run_cli("quotient-basis", self.scratch.file(corpus.monomial_text(clean, names)), "--max-deg", 3)
        self.assertIsNone(checks.commutative_quotient(clean, 3, 3)(code, out))

    def test_normal_form_and_decompose(self):
        lie = corpus.sl2("Z")
        path = self.scratch.file(lie.gens_text())
        poly = corpus.long_poly(lie, 2, random.Random(4))
        text = to_text(poly, lie.names)
        remainders = {}
        code, out = self.run_cli("normal-form", path, "--poly", text)
        check = checks.normal_form(lie, poly, remainders, "k")
        self.assertIsNone(check(code, out))
        self.assert_rejects(check, code, self.corrupt(out, lambda r: r["steps"][0].__setitem__("coeff", "5")))
        code, out = self.run_cli("decompose", path, "--poly", text)
        dec = checks.decompose(lie, poly, remainders, "k")
        self.assertIsNone(dec(code, out))
        self.assertEqual(checks.agreement(remainders), [])
        self.assert_rejects(dec, code, self.corrupt(out, lambda r: r.__setitem__("normal_part", "e")))
        remainders["k"].append({("e",): 1})
        self.assertEqual(checks.agreement(remainders), ["k"])

    def test_complete(self):
        lie = corpus.perturb(corpus.gl(2, "Q"), random.Random(5))
        text = lie.gens_text()
        code, out = self.run_cli("complete", self.scratch.file(text), "--max-deg", 3)
        fresh = run.make_fresh_check(CLI, self.scratch.dir)
        header = text[: text.index("\ngen ") + 1]
        check = checks.complete(lie.generators(), lie.ring, lambda got: fresh(header, got), True)
        self.assertIsNone(check(code, out))
        self.assert_rejects(check, code, self.corrupt(out, lambda r: r["generators"].pop()))
        self.assert_rejects(checks.complete(lie.generators(), lie.ring, lambda got: False, True), code, out)

    def test_member(self):
        lie = corpus.heisenberg("Z/4")
        path = self.scratch.file(lie.gens_text())
        rng = random.Random(6)
        poly = corpus.member_query(lie, 3, rng)
        code, out = self.run_cli("member", path, "--poly", to_text(poly, lie.names), "--max-deg", 3)
        self.assertIsNone(checks.member(lie, poly)(code, out))
        self.assert_rejects(checks.member(lie, poly), code,
                            self.corrupt(out, lambda r: r["witness"][0].__setitem__("coeff", "2")))
        self.assert_rejects(checks.non_member(), code, out)
        poly = corpus.non_member_query(lie, 3, rng)
        code, out = self.run_cli("member", path, "--poly", to_text(poly, lie.names), "--max-deg", 3)
        self.assertIsNone(checks.non_member()(code, out))
        self.assert_rejects(checks.member(lie, poly), code, out)


class AlgebraTest(unittest.TestCase):
    def test_text_round_trip(self):
        ring = Ring("Q")
        poly = {("x", "y"): Fraction(-3, 2), ("y",): Fraction(1), (): Fraction(-2)}
        self.assertEqual(parse_text(to_text(poly, ["x", "y"]), ring), poly)


if __name__ == "__main__":
    unittest.main()
