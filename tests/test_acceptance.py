"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
All checks are exact arithmetic; the only tolerances are the stated
runtime budgets.
"""

import random
import time
from itertools import product

import helpers
from ugb import (
    QQ,
    ZZ,
    Algebra,
    GenSet,
    LieAlgebra,
    NotUnital,
    Zmod,
    build_truncation,
    check_groebner,
    decompose,
    divide,
    enumerate_basis,
    is_member,
    normal_form,
    pbw_generators,
    validate_lie,
    verify_pbw,
)
from ugb.words import _deglex


def _finish(num, name, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"[acceptance] criterion {num} ({name}): {status}")
    assert not failures, f"criterion {num} ({name}): " + "; ".join(failures)


def test_criterion_01_degree_two_monomial_quotient():
    start = time.perf_counter()
    failures = []
    G = helpers.example1_genset(QQ, 3)
    report = check_groebner(G)
    if not report.is_groebner:
        failures.append(f"not Groebner: {len(report.witnesses)} witnesses")
    basis = enumerate_basis(G, 3)
    if basis.counts() != (1, 3, 0, 0):
        failures.append(f"counts {basis.counts()}")
    if basis.total() != 4:
        failures.append(f"total {basis.total()}")
    if [w for row in basis.by_degree for w in row] != [b"", helpers.word(0), helpers.word(1), helpers.word(2)]:
        failures.append("basis words differ from {1, x1, x2, x3}")
    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s")
    _finish(1, "degree-2 monomial quotient, n+1 basis", failures)


def test_criterion_02_sl2_pbw_over_z():
    start = time.perf_counter()
    failures = []
    report = verify_pbw(helpers.sl2(ZZ), 4)
    if not report.groebner.is_groebner:
        failures.append("not Groebner")
    expected = tuple((d + 2) * (d + 1) // 2 for d in range(5))
    if report.counts != (1, 3, 6, 10, 15) or report.counts != expected:
        failures.append(f"counts {report.counts}")
    if not report.non_decreasing:
        failures.append("a normal word decreases")
    elapsed = time.perf_counter() - start
    if elapsed >= 5.0:
        failures.append(f"runtime {elapsed:.2f}s")
    _finish(2, "sl2 enveloping algebra over Z", failures)


def test_criterion_03_heisenberg_over_z4():
    failures = []
    report = verify_pbw(helpers.heisenberg(Zmod(4)), 3)
    if not report.ok:
        failures.append("verify_pbw failed")
    if report.counts != (1, 3, 6, 10):
        failures.append(f"counts {report.counts}")
    _finish(3, "Heisenberg algebra over Z/4", failures)


def test_criterion_04_jacobi_matches_buchberger():
    rng = random.Random(2026)
    ring = Zmod(5)
    failures = []
    agreements = 0
    for case in range(120):
        brackets = {
            (i, j): tuple(rng.randrange(5) for _ in range(3))
            for i in range(3)
            for j in range(i)
        }
        L = LieAlgebra(ring, 3, brackets)
        lie_ok = not validate_lie(L)
        gb_ok = check_groebner(pbw_generators(L)).is_groebner
        if lie_ok != gb_ok:
            failures.append(f"case {case}: jacobi={lie_ok} buchberger={gb_ok}")
        agreements += 1
    if agreements < 100:
        failures.append(f"only {agreements} cases")
    _finish(4, "Jacobi iff Buchberger on 120 random tables over Z/5", failures)


def test_criterion_05_remainder_uniqueness(gb_corpora):
    rng = random.Random(2027)
    failures = []
    for name, G in gb_corpora.items():
        for k in range(500):
            f = helpers.random_poly(rng, G.algebra, max_deg=5, max_terms=6)
            base = divide(f, G).remainder
            for seed in range(50):
                if divide(f, G, seed).remainder != base:
                    failures.append(f"{name} input {k} seed {seed}")
                    break
            if failures:
                break
    _finish(5, "remainder uniqueness, 500 inputs x 50 seeds per corpus", failures)


def test_criterion_06_direct_sum_decomposition(gb_corpora):
    rng = random.Random(2028)
    failures = []
    for name, G in gb_corpora.items():
        for k in range(200):
            f = helpers.random_poly(rng, G.algebra, max_deg=4)
            g = helpers.random_poly(rng, G.algebra, max_deg=4)
            fi, fn = decompose(f, G)
            if fi + fn != f:
                failures.append(f"{name} {k}: reconstruction")
            ni, nn = decompose(fn, G)
            if not ni.is_zero() or nn != fn:
                failures.append(f"{name} {k}: idempotence")
            if decompose(f + g, G)[1] != fn + decompose(g, G)[1]:
                failures.append(f"{name} {k}: linearity")
            if failures:
                break
    _finish(6, "direct-sum split: reconstruction, idempotence, linearity", failures)


def test_criterion_07_oracle_agreement(sl2_z, example1_q):
    start = time.perf_counter()
    rng = random.Random(2029)
    failures = []
    for name, G in (("sl2/Z", sl2_z), ("example1/Q", example1_q)):
        module = build_truncation(G, 4)
        corpus = []
        for _ in range(120):
            corpus.append(helpers.random_poly(rng, G.algebra, max_deg=4))
        for _ in range(60):
            h = helpers.random_ideal_combo(rng, G, max_context=1, parts=2)
            if all(len(w) <= 4 for _, w in h.terms):
                corpus.append(h)
        for _ in range(20):
            h = helpers.random_ideal_combo(rng, G, max_context=1, parts=1)
            f = h + G.algebra.monomial(helpers.random_word(rng, G.algebra.alphabet.size, 1, G.algebra.oracle))
            if all(len(w) <= 4 for _, w in f.terms):
                corpus.append(f)
        for k, f in enumerate(corpus):
            by_division = normal_form(f, G).is_zero()
            by_oracle = is_member(f, module).member
            if by_division != by_oracle:
                failures.append(f"{name} input {k}: division={by_division} oracle={by_oracle}")
                break
    elapsed = time.perf_counter() - start
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.1f}s")
    _finish(7, "membership oracle agrees with the reduction engine", failures)


def test_criterion_08_negative_controls():
    failures = []
    AZ = Algebra(ZZ, ["x", "y"])
    G = GenSet([AZ.poly([(1, (0, 0)), (-1, (1,))])], AZ)
    report = check_groebner(G)
    if report.is_groebner:
        failures.append("x^2 - y passed")
    else:
        sp, trace = report.witnesses[0]
        expected = AZ.poly([(1, (0, 1)), (-1, (1, 0))])  # xy - yx
        if sp.value != expected or trace.remainder != expected:
            failures.append(f"witness {trace.remainder} is not xy - yx")

    A1 = Algebra(ZZ, ["x"])
    G2 = GenSet([A1.poly([(2, (0,))])], A1)
    try:
        check_groebner(G2)
        failures.append("{2x} was not rejected")
    except NotUnital:
        pass

    # the table stated in the source example ([h,e] = 2e + f) satisfies
    # Jacobi, so the control uses a genuine breaker: [e,f] = h + e
    bad = helpers.perturbed_sl2(ZZ)
    if not validate_lie(bad):
        failures.append("perturbed table passed Jacobi")
    if check_groebner(pbw_generators(bad)).is_groebner:
        failures.append("perturbed table passed Buchberger")
    _finish(8, "negative controls: non-GB witness, NotUnital, broken Jacobi", failures)


def test_criterion_09_telescoping():
    rng = random.Random(2030)
    failures = []
    for ring in (QQ, Zmod(9)):
        algebra = Algebra(ring, ["x", "y"])
        for k in range(200):
            fs, cs = helpers.random_telescope_instance(rng, algebra, rng.randint(2, 5))
            direct = algebra.zero()
            for c, f in zip(cs, fs):
                direct = direct + f.scale(c)
            combo = algebra.zero()
            for d, s in helpers.telescope(fs, cs):
                combo = combo + s.scale(d)
            if combo != direct:
                failures.append(f"{ring} instance {k}")
                break
    _finish(9, "telescoping reconstructs weighted sums over Q and Z/9", failures)


def test_criterion_10_property_suites():
    rng = random.Random(2031)
    failures = []
    # order axioms on 10^4 random samples
    def rand_word(max_len=5):
        return bytes(rng.randrange(3) for _ in range(rng.randint(0, max_len)))

    for k in range(10_000):
        b, b2, r, s = rand_word(), rand_word(), rand_word(3), rand_word(3)
        if _deglex(b) < _deglex(b2) and not _deglex(r + b + s) < _deglex(r + b2 + s):
            failures.append(f"axiom (a) fails at sample {k}")
            break
        if (r or s) and not _deglex(b) < _deglex(r + b + s):
            failures.append(f"axiom (b) fails at sample {k}")
            break

    # disjoint placements of overlap-complete unital pairs reduce to zero
    checked = 0
    for ring in (ZZ, Zmod(6), QQ):
        algebra = Algebra(ring, ["x", "y"])
        found = 0
        while found < 4:
            g1 = helpers.random_unital_poly(rng, algebra, max_deg=2)
            g2 = helpers.random_unital_poly(rng, algebra, max_deg=2)
            G = GenSet([g1, g2], algebra)
            if not check_groebner(G).is_groebner:
                continue
            found += 1
            inv = [ring.inv_unit(g.lc()) for g in G.gens]
            for i, j in ((0, 1), (1, 0)):
                wi, wj = G.gens[i].lm(), G.gens[j].lm()
                budget = 6 - len(wi) - len(wj)
                for total in range(max(budget, -1) + 1):
                    for la in range(total + 1):
                        for lb in range(total - la + 1):
                            lc = total - la - lb
                            for a in map(bytes, product(range(2), repeat=la)):
                                for b in map(bytes, product(range(2), repeat=lb)):
                                    for c in map(bytes, product(range(2), repeat=lc)):
                                        s = G.gens[i].scale(inv[i], a, b + wj + c) - G.gens[j].scale(
                                            inv[j], a + wi + b, c
                                        )
                                        if not divide(s, G).remainder.is_zero():
                                            failures.append(
                                                f"disjoint placement over {ring}"
                                            )
                                        checked += 1
    if checked < 500:
        failures.append(f"only {checked} disjoint placements checked")
    _finish(10, "order axioms and disjoint-placement soundness", failures)
