import random
from itertools import chain, permutations
from math import comb

import pytest

import helpers
import ugb.pbw
from ugb import (
    COMMUTATIVE,
    FREE,
    LieAlgebra,
    QQ,
    ZZ,
    Algebra,
    GenSet,
    Zmod,
    check_groebner,
    enumerate_basis,
    normal_form,
    pbw_generators,
    validate_lie,
    verify_pbw,
)


def _random_lie(rng, ring, rank):
    # sparse to dense, so that some tables satisfy Jacobi and most do not
    density = rng.choice((0.1, 0.3, 0.6))
    brackets = {}
    for i in range(rank):
        for j in range(i):
            brackets[(i, j)] = tuple(
                helpers.random_nonzero(rng, ring) if rng.random() < density else 0
                for _ in range(rank)
            )
    return LieAlgebra(ring, rank, brackets)


def _dense_jacobi_violations(L):
    # Reference: every one of the rank**3 ordered triples, with each
    # double bracket expanded on dense coefficient vectors.
    ring = L.ring
    zero = (0,) * L.rank

    def bracket(i, j):
        # [x_i, x_j] from the stored pairs i > j, by antisymmetry
        if i < j:
            return tuple(-c for c in bracket(j, i))
        return L.brackets.get((i, j), zero)

    def bracket_with_gen(vec, k):
        out = [0] * L.rank
        for m, c in enumerate(vec):
            if not c:
                continue
            bm = bracket(m, k)
            for t in range(L.rank):
                out[t] += c * bm[t]
        return out

    violations = []
    for i in range(L.rank):
        for j in range(L.rank):
            for k in range(L.rank):
                v1 = bracket_with_gen(bracket(i, j), k)
                v2 = bracket_with_gen(bracket(j, k), i)
                v3 = bracket_with_gen(bracket(k, i), j)
                total = tuple(helpers.canonical(ring, a + b + c) for a, b, c in zip(v1, v2, v3))
                if any(total):
                    violations.append(((i, j, k), total))
    return violations


def test_validate_abelian():
    for n in (1, 2, 4):
        assert validate_lie(helpers.abelian(ZZ, n)) == ()


def test_validate_sl2():
    assert validate_lie(helpers.sl2(ZZ)) == ()
    assert validate_lie(helpers.sl2(QQ)) == ()


def test_validate_lie_matches_dense_reference():
    rng = random.Random(44)
    tables = [helpers.perturbed_sl2(ring) for ring in (ZZ, QQ, Zmod(4), Zmod(6))]
    for ring in (ZZ, QQ, Zmod(4), Zmod(6)):
        for rank in range(1, 6):
            tables.extend(_random_lie(rng, ring, rank) for _ in range(6))
    violating = 0
    for L in tables:
        got = validate_lie(L)
        assert list(got) == _dense_jacobi_violations(L), L
        violating += bool(got)
    assert 0 < violating < len(tables)


def test_validate_perturbed_sl2_reports_triples():
    violations = validate_lie(helpers.perturbed_sl2(ZZ))
    assert violations
    triple, sums = violations[0]
    assert len(triple) == 3
    assert any(c != 0 for c in sums)


def test_bracket_input_validation():
    with pytest.raises(ValueError):
        LieAlgebra(ZZ, 2, {(0, 1): (1, 0)})  # needs i > j
    with pytest.raises(ValueError):
        LieAlgebra(ZZ, 2, {(1, 0): (1,)})  # wrong vector length
    with pytest.raises(ValueError):
        LieAlgebra(ZZ, 2, names=("x",))


def test_build_rank_one_is_empty():
    assert pbw_generators(helpers.abelian(ZZ, 1)).gens == ()


def test_build_abelian_rank_two():
    G = pbw_generators(helpers.abelian(ZZ, 2))
    A = G.algebra
    assert G.gens == (A.poly([(1, (1, 0)), (-1, (0, 1))]),)


def test_build_sl2_generators_exact():
    G = pbw_generators(helpers.sl2(ZZ))
    A = G.algebra
    e, f, h = 0, 1, 2
    expected = [
        A.poly([(1, (f, e)), (-1, (e, f)), (1, (h,))]),
        A.poly([(1, (h, e)), (-1, (e, h)), (-2, (e,))]),
        A.poly([(1, (h, f)), (-1, (f, h)), (2, (f,))]),
    ]
    assert list(G.gens) == expected
    assert G.is_unital


def test_build_invalid_lie_for_probes():
    # no Jacobi validation happens when the system is built
    G = pbw_generators(helpers.perturbed_sl2(ZZ))
    assert len(G.gens) == 3


def test_verify_abelian_rank_three():
    report = verify_pbw(helpers.abelian(ZZ, 3), 2)
    assert report.ok
    assert report.counts == (1, 3, 6)


def test_verify_sl2_over_z():
    report = verify_pbw(helpers.sl2(ZZ), 4)
    assert report.ok
    assert report.counts == (1, 3, 6, 10, 15)
    assert report.groebner.is_groebner
    assert report.non_decreasing


def test_verify_heisenberg_over_z4():
    report = verify_pbw(helpers.heisenberg(Zmod(4)), 3)
    assert report.ok
    assert report.counts == (1, 3, 6, 10)


def test_verify_perturbed_sl2_fails():
    report = verify_pbw(helpers.perturbed_sl2(ZZ), 2)
    assert report.jacobi_violations
    assert not report.groebner.is_groebner
    assert not report.ok


def test_verify_rejects_a_negative_bound_before_any_check(monkeypatch):
    # the bound is checked first: neither the Jacobi nor the Buchberger
    # check may run on a request that is rejected anyway
    def ran(_):
        raise AssertionError("a check ran before the bound was rejected")

    monkeypatch.setattr(ugb.pbw, "validate_lie", ran)
    monkeypatch.setattr(ugb.pbw, "check_groebner", ran)
    with pytest.raises(ValueError, match="max_degree must be nonnegative"):
        verify_pbw(helpers.sl2(ZZ), -1)


def test_normal_words_are_exactly_non_decreasing():
    rng = random.Random(41)
    for ring in (ZZ, Zmod(5)):
        for rank in (2, 3):
            brackets = {}
            for i in range(rank):
                for j in range(i):
                    brackets[(i, j)] = tuple(
                        helpers.random_nonzero(rng, ring) if rng.random() < 0.5 else 0
                        for _ in range(rank)
                    )
            L = LieAlgebra(ring, rank, brackets)
            G = pbw_generators(L)
            for d in range(4):
                normals = set(helpers.brute_normal_words(G, d))
                from itertools import product as iproduct

                expected = {
                    w
                    for w in map(bytes, iproduct(range(rank), repeat=d))
                    if all(w[t] <= w[t + 1] for t in range(d - 1))
                }
                assert normals == expected


def test_non_decreasing_verdict_from_degree_two_matches_the_full_listing():
    # on random free sets, with and without normal descents, the full
    # listing never finds a descent that degree 2 missed (factors of
    # normal words are normal), and verify_pbw's probe form, a lead word
    # dividing each descent, reads the same verdict off the index
    def non_decreasing(G, max_degree):
        words = chain.from_iterable(enumerate_basis(G, max_degree, strict=False).by_degree)
        return all(map(COMMUTATIVE.is_basis_word, words))

    rng = random.Random(43)
    verdicts = []
    for _ in range(300):
        n_letters = rng.randint(1, 3)
        algebra = Algebra(ZZ, ["x", "y", "z"][:n_letters], FREE)
        descents = [bytes((a, b)) for a in range(n_letters) for b in range(a)]
        words = [w for w in descents if rng.random() < 0.5]
        words += [helpers.random_word(rng, n_letters, 4, min_len=1) for _ in range(rng.randint(0, 2))]
        G = GenSet([algebra.monomial(w) for w in words], algebra)
        max_degree = rng.randint(0, 6)
        verdict = non_decreasing(G, max_degree)
        assert non_decreasing(G, min(max_degree, 2)) == verdict
        probe = all(G.leads.first(bytes((a, b))) is not None
                    for a in range(n_letters) for b in range(a))
        # the probe reads degree 2 whatever the bound
        assert probe == non_decreasing(G, 2)
        if max_degree >= 2:
            assert probe == verdict
        verdicts.append(verdict)
    assert verdicts.count(True) >= 100 and verdicts.count(False) >= 60


def test_jacobi_iff_buchberger_randomized():
    # The PBW corollary triple by triple: the only ambiguities are
    # x_i x_j x_k with i > j > k, one per set of three indices, and the
    # remainder of each is the degree-1 Jacobi sum of the triple (i, j, k).
    rng = random.Random(42)
    violating = 0
    for ring in (ZZ, QQ, Zmod(4), Zmod(5), Zmod(6)):
        for rank in (4, 5):
            for _ in range(8):
                L = _random_lie(rng, ring, rank)
                violations = validate_lie(L)
                jacobi = {
                    bytes(triple): sums
                    for triple, sums in violations
                    if triple[0] > triple[1] > triple[2]
                }
                gb = check_groebner(pbw_generators(L))
                assert gb.pairs_checked == comb(rank, 3)
                remainders = {}
                for sp, trace in gb.witnesses:
                    vec = [0] * rank
                    for c, w in trace.remainder.terms:
                        assert len(w) == 1
                        vec[w[0]] = c
                    remainders[sp.ambiguity] = tuple(vec)
                assert remainders == jacobi
                assert (not violations) == gb.is_groebner
                violating += bool(violations)
    assert 0 < violating < 80


def test_abelian_normal_form_sorts_words():
    L = helpers.abelian(ZZ, 3)
    G = pbw_generators(L)
    A = G.algebra
    rng = random.Random(43)
    for d in range(2, 6):
        base = [rng.randrange(3) for _ in range(d)]
        sorted_word = tuple(sorted(base))
        for perm in set(permutations(base)):
            nf = normal_form(A.monomial(perm), G)
            assert nf == A.monomial(sorted_word)


def test_expected_counts_formula():
    report = verify_pbw(helpers.sl2(ZZ), 4)
    assert report.expected_counts == tuple(comb(3 + d - 1, d) for d in range(5))
