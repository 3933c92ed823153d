import random
import textwrap
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

import helpers
from ugb import (
    COMMUTATIVE,
    FREE,
    QQ,
    ZZ,
    Algebra,
    EngineInvariantBroken,
    GenSet,
    NonUnitalRemainder,
    NotUnital,
    RoundsExceeded,
    Zmod,
    build_truncation,
    check_groebner,
    complete,
    divide,
    is_member,
    normal_form,
    parse_poly,
    pbw_generators,
    s_polynomials,
)
from ugb.spolys import SPoly, _pair_order
from ugb.words import FreeConcat, _deglex

AZ = Algebra(ZZ, ["x", "y"])
X, Y = 0, 1


def test_self_overlap_spoly():
    # x^2 - y overlaps itself at x^3; expanding both placements by hand:
    # (x^2 - y) x - x (x^2 - y) = xy - yx
    G = helpers.gset(AZ, [(1, (X, X)), (-1, (Y,))])
    sps = s_polynomials(G)
    assert len(sps) == 1
    sp = sps[0]
    assert (sp.i, sp.j) == (0, 0)
    assert sp.ambiguity == helpers.word(X, X, X)
    assert sp.value == AZ.poly([(1, (X, Y)), (-1, (Y, X))])


def test_single_pbw_generator_has_no_spolys():
    G = pbw_generators(helpers.abelian(ZZ, 2))
    assert G.lead_words == (helpers.word(1, 0),)
    assert s_polynomials(G) == []


def test_inverse_pair_spolys_vanish(inverse_pair_q):
    sps = s_polynomials(inverse_pair_q)
    ambiguities = [sp.ambiguity for sp in sps]
    assert ambiguities == [helpers.word(0, 1, 0), helpers.word(1, 0, 1)]
    assert all(sp.value.is_zero() for sp in sps)


def test_equal_leading_words_of_distinct_generators_collide():
    # {z - x, z - y}: no word overlap exists, but the two generators meet
    # at the bare leading word z, and their difference y - x is irreducible
    A3 = Algebra(QQ, ["x", "y", "z"])
    G = helpers.gset(A3, [(1, (2,)), (-1, (0,))], [(1, (2,)), (-1, (1,))])
    sps = s_polynomials(G)
    assert len(sps) == 1
    assert sps[0].value == A3.poly([(1, (1,)), (-1, (0,))])
    assert not check_groebner(G).is_groebner


@pytest.mark.parametrize("oracle", [FREE, COMMUTATIVE])
def test_unit_constant_generator_is_groebner(oracle):
    # a unit constant generates everything: its empty leading word is
    # included in every word, so every query reduces to zero and is a member
    A = Algebra(QQ, ["x", "y"], oracle)
    rng = random.Random(7)
    for gens in ([[(2, ())]], [[(2, ())], [(1, (X, Y)), (-1, ())]], [[(2, ())], [(3, ())]]):
        G = helpers.gset(A, *gens)
        assert check_groebner(G).is_groebner
        module = build_truncation(G, 3)
        for _ in range(10):
            f = helpers.random_poly(rng, A, max_deg=3)
            assert normal_form(f, G).is_zero() == is_member(f, module).member


def test_spolys_not_unital():
    G = helpers.gset(AZ, [(2, (X,))])
    with pytest.raises(NotUnital):
        s_polynomials(G)


def test_spoly_leading_terms_cancel_below_ambiguity():
    rng = random.Random(21)
    for ring in (ZZ, QQ, Zmod(6)):
        algebra = Algebra(ring, ["x", "y"])
        for _ in range(30):
            gens = [helpers.random_unital_poly(rng, algebra, max_deg=3) for _ in range(2)]
            G = GenSet(gens, algebra)
            for sp in s_polynomials(G):
                assert sp.value.is_zero() or _deglex(sp.value.lm()) < _deglex(sp.ambiguity)


def _led_by(rng, algebra, word):
    """A random unit times word plus a random tail of lower words."""
    tail = helpers.random_poly(rng, algebra, max_deg=len(word), max_terms=3)
    tail = algebra.poly([(c, w) for c, w in tail.terms if _deglex(w) < _deglex(word)])
    return algebra.monomial(word, helpers.random_unit(rng, algebra.ring)) + tail


def _typed(p):
    return [(type(c), c, w) for c, w in p.terms]


def _fields(sp):
    return sp.i, sp.j, sp.u, sp.u2, sp.ambiguity, _typed(sp.value)


@settings(max_examples=150)
@given(
    seed=st.integers(0, 2**32 - 1),
    ring=st.sampled_from([ZZ, QQ, Zmod(4), Zmod(6)]),
    oracle=st.sampled_from([FREE, COMMUTATIVE]),
)
def test_spolys_match_scale_and_subtract_reference(seed, ring, oracle):
    # generator 0 has a self-overlapping lead word (aa or aba), generator 1
    # a lead word that includes it, and up to two random generators follow
    rng = random.Random(seed)
    algebra = Algebra(ring, ["x", "y"], oracle)
    a = rng.randrange(2)
    word = rng.choice([helpers.word(a, a), helpers.word(a, 1 - a, a)])
    extra = helpers.random_word(rng, 2, 2, min_len=1)
    cut = rng.randint(0, len(extra))
    outer = extra[:cut] + word + extra[cut:]
    if oracle is COMMUTATIVE:
        word, outer = bytes(sorted(word)), bytes(sorted(outer))
    gens = [_led_by(rng, algebra, word), _led_by(rng, algebra, outer)]
    gens += [helpers.random_unital_poly(rng, algebra) for _ in range(rng.randint(0, 2))]
    G = GenSet(gens, algebra)
    sps = s_polynomials(G)
    expected = []
    for i, j, u, v, u2, v2 in G.leads.critical_pairs(0):
        ambiguity = helpers.word_product(oracle, u, G.lead_words[i], v)
        assert helpers.word_product(oracle, u2, G.lead_words[j], v2) == ambiguity
        expected.append(SPoly(i, j, u, u2, ambiguity, helpers.reference_spoly(G, i, j, u, v, u2, v2)))
    expected.sort(key=_pair_order)
    assert list(map(_fields, sps)) == list(map(_fields, expected))
    assert any(sp.i == 0 and sp.j == 1 and sp.ambiguity == outer for sp in sps)
    if oracle is FREE:
        assert any(sp.i == sp.j == 0 for sp in sps)


def complete_to_degree_4(G):
    return complete(G, max_degree=4)


# Entries that build s-polynomials: each one checks the cancellation itself
_SPOLY_ENTRIES = [s_polynomials, check_groebner, complete_to_degree_4]


class _Listing:
    """A lead-word index that lists the given placements and records each
    listing; the tests that use it raise before any division."""

    def __init__(self, pairs):
        self.pairs = pairs
        self.listed = []

    def critical_pairs(self, first_new):
        self.listed.append(first_new)
        return self.pairs


_BROKEN_SPOLY_INVERSE = textwrap.dedent("""
    from ugb import QQ, ZZ, Algebra, EngineInvariantBroken, FreeConcat, GenSet, check_groebner, complete, s_polynomials

    A = Algebra(QQ, ["x", "y"])
    G = GenSet([A.poly([(1, (0, 1)), (-1, ())]), A.poly([(1, (1, 0)), (-1, ())])], A)
    G.inv_leads = (QQ.coerce(2), QQ.coerce(1))  # the true inverses are 1 and 1

    class Misplaced(FreeConcat):
        def critical_pairs(self, first_new):
            return [(0, 1, b"", b"", b"", b"")]

    AZ = Algebra(ZZ, ["x", "y"])
    H = GenSet([AZ.poly([(1, (0,)), (-1, ())]), AZ.poly([(1, (1,)), (1, (0,))])], AZ)
    H.leads = Misplaced(H.lead_words)
    for entry in (s_polynomials, check_groebner, lambda G: complete(G, 4)):
        for broken in (G, H):
            try:
                entry(broken)
            except EngineInvariantBroken as exc:
                print(exc)
""")


def test_broken_lead_inverse_breaks_spoly_cancellation():
    # {xy - 1, yx - 1} meet at xyx; with 2 in place of the first inverse
    # the s-polynomial is 2(xyx - x) - (xyx - x), led by the ambiguity word.
    # Under -O the script also runs the misplaced pair of the test below
    for entry in _SPOLY_ENTRIES:
        G = helpers.gset(AZ, [(1, (X, Y)), (-1, ())], [(1, (Y, X)), (-1, ())])
        G.inv_leads = (2, 1)
        with pytest.raises(EngineInvariantBroken, match="s-polynomial leading terms failed to cancel"):
            entry(G)
    expected = "s-polynomial leading terms failed to cancel\n" * 6
    assert helpers.run_optimized(_BROKEN_SPOLY_INVERSE) == expected


@pytest.mark.parametrize("entry", _SPOLY_ENTRIES, ids=lambda entry: entry.__name__)
def test_second_placement_must_lead_at_the_ambiguity_word(entry):
    # {x - 1, y + x} listed with both placements empty: the terms at the
    # ambiguity word x cancel, but the second product is led by y > x, so
    # the s-polynomial -y - 1 is not below its ambiguity word
    G = helpers.gset(AZ, [(1, (X,)), (-1, ())], [(1, (Y,)), (1, (X,))])
    G.leads = _Listing([(0, 1, b"", b"", b"", b"")])
    with pytest.raises(EngineInvariantBroken, match="s-polynomial leading terms failed to cancel"):
        entry(G)


@pytest.mark.parametrize("entry", _SPOLY_ENTRIES, ids=lambda entry: entry.__name__)
def test_non_unital_input_is_refused_before_pairs_are_listed(entry):
    G = helpers.gset(AZ, [(1, (X, X)), (-1, (Y,))], [(2, (Y, X)), (1, (X,))])
    G.leads = _Listing([])
    with pytest.raises(NotUnital):
        entry(G)
    assert G.leads.listed == []


# ---------------------------------------------------------------------------
# telescoping


def test_telescope_two_terms():
    A = Algebra(QQ, ["x"])
    fs = [A.poly([(1, (0,)), (1, ())]), A.poly([(1, (0,)), (-1, ())])]
    out = helpers.telescope(fs, [1, -1])
    assert len(out) == 1
    d, s = out[0]
    assert d == 1
    assert s == A.poly([(2, ())])


def test_telescope_identical_inputs():
    A = Algebra(QQ, ["x"])
    fs = [A.poly([(1, (0,))]), A.poly([(1, (0,))])]
    out = helpers.telescope(fs, [1, -1])
    assert len(out) == 1
    d, s = out[0]
    assert d == 1
    assert s.is_zero()


def test_telescope_weighted():
    # alphabet ordered y < x so that x leads 2x + y
    A = Algebra(QQ, ["y", "x"])
    x, y = (1,), (0,)
    fs = [A.poly([(2, x), (1, y)]), A.poly([(1, x)])]
    out = helpers.telescope(fs, [1, -2])
    assert len(out) == 1
    d, s = out[0]
    assert d == 2
    assert s == A.poly([("1/2", y)])
    total = A.zero()
    for dk, sk in out:
        total = total + sk.scale(dk)
    assert total == A.poly([(1, y)])


@pytest.mark.parametrize("ring", [QQ, Zmod(9)])
def test_telescope_reconstructs_random_instances(ring):
    rng = random.Random(22)
    algebra = Algebra(ring, ["x", "y"])
    for _ in range(100):
        fs, cs = helpers.random_telescope_instance(rng, algebra, rng.randint(2, 5))
        out = helpers.telescope(fs, cs)
        assert len(out) == len(fs) - 1
        direct = algebra.zero()
        for c, f in zip(cs, fs):
            direct = direct + f.scale(c)
        combo = algebra.zero()
        for d, s in out:
            combo = combo + s.scale(d)
        assert combo == direct


def test_telescope_preconditions():
    A = Algebra(QQ, ["x", "y"])
    x = A.poly([(1, (0,))])
    y = A.poly([(1, (1,))])
    with pytest.raises(ValueError, match="leading monomials differ"):
        helpers.telescope([x, y], [1, -1])  # different leading monomials
    with pytest.raises(ValueError, match="does not vanish"):
        helpers.telescope([x, x], [1, 1])  # weighted sum does not vanish
    with pytest.raises(ValueError, match="zero coefficient"):
        helpers.telescope([x], [0])  # zero coefficient
    with pytest.raises(ValueError, match="zero polynomial"):
        helpers.telescope([x, A.zero()], [1, -1])
    AZ9 = Algebra(Zmod(9), ["x"])
    f = AZ9.poly([(3, (0,))])
    with pytest.raises(ValueError, match="is not a unit"):
        helpers.telescope([f, f], [1, -1])  # 3 is not a unit mod 9


# ---------------------------------------------------------------------------
# the Buchberger check


def test_example1_is_groebner(example1_q):
    report = check_groebner(example1_q)
    assert report.is_groebner
    assert report.witnesses == ()
    assert report.pairs_checked == 15  # one lcm pair per unordered pair of 6


def test_x2_minus_y_is_not_groebner():
    G = helpers.gset(AZ, [(1, (X, X)), (-1, (Y,))])
    report = check_groebner(G)
    assert not report.is_groebner
    assert len(report.witnesses) == 1
    sp, trace = report.witnesses[0]
    assert trace.remainder == AZ.poly([(1, (X, Y)), (-1, (Y, X))])


def test_sl2_pbw_is_groebner(sl2_z):
    report = check_groebner(sl2_z)
    assert report.is_groebner
    assert report.pairs_checked == 1  # only ambiguity: h f e


def test_inverse_pair_is_groebner(inverse_pair_q):
    assert check_groebner(inverse_pair_q).is_groebner


def test_commutative_shared_letter_counterexample():
    # leading words xz and yz share no contiguous factor but their lcm xyz
    # exposes the failure; a contiguous-overlap enumeration would wrongly
    # report IsGroebner here
    A3 = Algebra(QQ, ["x", "y", "z"], COMMUTATIVE)
    G = helpers.gset(
        A3,
        [(1, (0, 2)), (-1, (0, 1))],   # xz - xy
        [(1, (1, 2)), (-1, (0, 1))],   # yz - xy
    )
    sps = s_polynomials(G)
    assert len(sps) == 1
    assert sps[0].ambiguity == helpers.word(0, 1, 2)
    report = check_groebner(G)
    assert not report.is_groebner
    # the witness x^2 y - x y^2 is a genuine member: direct combination
    member = G.gens[0].scale(1, (1,), ()) - G.gens[1].scale(1, (0,), ())
    assert member == sps[0].value.scale(-1) or member == sps[0].value


def test_commutative_monomial_sets_always_groebner():
    rng = random.Random(23)
    for _ in range(25):
        n = rng.randint(2, 3)
        algebra = Algebra(Zmod(rng.choice([4, 5, 6])), [f"x{i}" for i in range(n)], COMMUTATIVE)
        gens = []
        for _ in range(rng.randint(1, 4)):
            w = helpers.random_word(rng, n, 3, COMMUTATIVE, min_len=1)
            gens.append(algebra.monomial(w))
        G = GenSet(gens, algebra)
        assert check_groebner(G).is_groebner


def _all_disjoint_spolys(G, max_ambiguity_len, n_letters):
    """Every placement of the two generators with separated copies, first
    copy left then right, up to the ambiguity length bound."""
    ring = G.algebra.ring
    for i, j in ((0, 1), (1, 0)):
        gi, gj = G.gens[i], G.gens[j]
        wi, wj = gi.lm(), gj.lm()
        invi = ring.inv_unit(gi.lc())
        invj = ring.inv_unit(gj.lc())
        budget = max_ambiguity_len - len(wi) - len(wj)
        for total in range(max(budget, -1) + 1):
            for la in range(total + 1):
                for lb in range(total - la + 1):
                    lc = total - la - lb
                    for a in map(bytes, product(range(n_letters), repeat=la)):
                        for b in map(bytes, product(range(n_letters), repeat=lb)):
                            for c in map(bytes, product(range(n_letters), repeat=lc)):
                                yield gi.scale(invi, a, b + wj + c) - gj.scale(
                                    invj, a + wi + b, c
                                )


def test_disjoint_placements_reduce_to_zero_for_overlap_complete_pairs():
    # Whenever a pair passes the overlap-only check it is a Groebner
    # basis, so every disjoint-placement s-polynomial (excluded from the
    # enumeration) must divide to zero; this is what justifies leaving
    # disjoint placements out.
    rng = random.Random(24)
    checked = 0
    for ring in (ZZ, Zmod(6), QQ):
        algebra = Algebra(ring, ["x", "y"])
        while True:
            g1 = helpers.random_unital_poly(rng, algebra, max_deg=2)
            g2 = helpers.random_unital_poly(rng, algebra, max_deg=2)
            G = GenSet([g1, g2], algebra)
            if not check_groebner(G).is_groebner:
                continue
            for s in _all_disjoint_spolys(G, 6, 2):
                assert divide(s, G).remainder.is_zero()
                checked += 1
            break
    assert checked > 100


def test_disjoint_placements_can_fail_without_overlap_completeness():
    # Regression for the conditioning above: the unital pair
    # {-x - 10, yx + 8x + 1} fails the overlap check (x sits inside yx),
    # and one of its disjoint-placement s-polynomials has a nonzero
    # FirstMatch remainder, so the unconditioned claim is false.
    g1 = AZ.poly([(-1, (X,)), (-10, ())])
    g2 = AZ.poly([(1, (Y, X)), (8, (X,)), (1, ())])
    G = GenSet([g1, g2], AZ)
    assert not check_groebner(G).is_groebner
    s = g1.scale(-1, (), (Y, X)) - g2.scale(1, (X,), ())
    assert s == AZ.poly([(10, (Y, X)), (-8, (X, X)), (-1, (X,))])
    assert not divide(s, G).remainder.is_zero()


def test_criterion_soundness_members_reduce_to_zero(gb_corpora):
    # a passing verdict must make every ideal combination reduce to zero;
    # combinations are regenerated (never truncated) to stay within degree 5
    rng = random.Random(25)
    for name, G in gb_corpora.items():
        done = 0
        while done < 30:
            h = helpers.random_ideal_combo(rng, G, max_context=2, parts=3)
            if any(len(w) > 5 for _, w in h.terms):
                continue
            assert divide(h, G).remainder.is_zero(), name
            done += 1


def test_criterion_completeness_witness_is_a_member():
    # a failing verdict's witness is a genuine ideal element that the
    # reduction engine cannot see: member by the oracle, nonzero remainder
    from ugb import build_truncation, is_member

    G = helpers.gset(AZ, [(1, (X, X)), (-1, (Y,))])
    report = check_groebner(G)
    assert not report.is_groebner
    sp, trace = report.witnesses[0]
    module = build_truncation(G, len(sp.ambiguity))
    assert is_member(sp.value, module).member
    assert not trace.remainder.is_zero()


def _witness(witness):
    sp, trace = witness
    return _fields(sp), trace.steps, _typed(trace.remainder)


@pytest.mark.parametrize("oracle", [FREE, COMMUTATIVE])
def test_check_groebner_is_its_definition(oracle):
    # every s-polynomial is checked, and the witnesses are those that
    # divide to a nonzero remainder, with their traces, in the order of
    # s_polynomials, which is not the order the pairs are listed in
    rng = random.Random(34)
    reordered = 0
    for case in range(200):
        ring = (ZZ, QQ, Zmod(4), Zmod(6))[case % 4]
        algebra = Algebra(ring, ["x", "y", "z"], oracle)
        G = _random_unital_set(rng, algebra)
        spolys = s_polynomials(G)
        expected = [(sp, divide(sp.value, G)) for sp in spolys]
        expected = [(sp, trace) for sp, trace in expected if not trace.remainder.is_zero()]
        report = check_groebner(G)
        assert report.pairs_checked == len(spolys)
        assert list(map(_witness, report.witnesses)) == list(map(_witness, expected)), G
        listed = [(i, j, u, u2) for i, j, u, _, u2, _ in G.leads.critical_pairs(0)]
        places = [listed.index((sp.i, sp.j, sp.u, sp.u2)) for sp, _ in report.witnesses]
        reordered += places != sorted(places)
    assert reordered > 30


# ---------------------------------------------------------------------------
# completion


def test_complete_fixed_point(inverse_pair_q):
    assert complete(inverse_pair_q, max_degree=4) is inverse_pair_q


def test_complete_adjoins_commutator():
    AQ = Algebra(QQ, ["x", "y"])
    G = GenSet([AQ.poly([(1, (X, X)), (-1, (Y,))])], AQ)
    result = complete(G, max_degree=4)
    assert check_groebner(result).is_groebner
    assert len(result.gens) == 2
    assert result.gens[1] == AQ.poly([(1, (Y, X)), (-1, (X, Y))])


def test_complete_works_over_z():
    G = helpers.gset(AZ, [(1, (X, X)), (-1, (Y,))])
    result = complete(G, max_degree=4)
    assert check_groebner(result).is_groebner


def test_complete_rejects_non_unital_input():
    G = helpers.gset(AZ, [(2, (X, X)), (-1, (Y,))])
    with pytest.raises(NotUnital):
        complete(G, max_degree=4)


def test_complete_non_unital_remainder():
    # x^2 - 2y is unital (monic) but its self-overlap leaves 2xy - 2yx,
    # whose leading coefficient 2 cannot be inverted over Z
    G = helpers.gset(AZ, [(1, (X, X)), (-2, (Y,))])
    with pytest.raises(NonUnitalRemainder):
        complete(G, max_degree=4)


def test_complete_degree_bound_blocks_progress():
    G = helpers.gset(AZ, [(1, (X, X)), (-1, (Y,))])
    with pytest.raises(RoundsExceeded):
        complete(G, max_degree=2)  # the only ambiguity x^3 exceeds the bound


def _complete_reference(G, max_degree, max_rounds):
    """Completion that runs the full Buchberger check every round; the
    incremental ``complete`` must agree with it exactly."""
    ring = G.algebra.ring
    current = G
    for _ in range(max_rounds):
        report = check_groebner(current)
        if report.is_groebner:
            return current
        additions = []
        for sp, trace in report.witnesses:
            if len(sp.ambiguity) > max_degree:
                continue
            remainder = trace.remainder
            inv = ring.inv_unit(remainder.lc())
            if inv is None:
                raise NonUnitalRemainder(
                    f"s-polynomial of pair ({sp.i}, {sp.j}) reduced to "
                    f"{remainder} with non-unit leading coefficient "
                    f"{remainder.lc()}"
                )
            monic = remainder.scale(inv)
            if monic not in additions:
                additions.append(monic)
        if not additions:
            raise RoundsExceeded(
                "every failing ambiguity word is longer than "
                f"max_degree={max_degree}; completion cannot progress"
            )
        current = GenSet(current.gens + tuple(additions), G.algebra)
    raise RoundsExceeded(f"no Groebner basis after {max_rounds} rounds")


def _outcome(run, G, max_degree, max_rounds):
    try:
        result = run(G, max_degree, max_rounds)
    except (NonUnitalRemainder, RoundsExceeded) as exc:
        return type(exc), str(exc), None
    return "completed", result.gens, result


_COMPLETION_RINGS = [ZZ, QQ, Zmod(4), Zmod(5), Zmod(6)]


def _random_unital_set(rng, algebra):
    gens = [helpers.random_unital_poly(rng, algebra, max_deg=3, max_terms=3)
            for _ in range(rng.randint(2, 3))]
    return GenSet(gens, algebra)


def test_complete_matches_round_wise_reference():
    rng = random.Random(8)
    seen = set()
    grown = 0
    for case in range(600):
        ring = _COMPLETION_RINGS[case % len(_COMPLETION_RINGS)]
        oracle = (FREE, COMMUTATIVE)[case // len(_COMPLETION_RINGS) % 2]
        algebra = Algebra(ring, ["x", "y", "z"], oracle)
        G = _random_unital_set(rng, algebra)
        max_degree = rng.randint(2, 5)
        max_rounds = rng.randint(1, 4)
        kind, value, result = _outcome(complete, G, max_degree, max_rounds)
        if result is not None:
            grown += result is not G
            assert check_groebner(result).is_groebner
        assert (kind, value) == _outcome(_complete_reference, G, max_degree, max_rounds)[:2], G
        seen.add(kind)
    assert seen == {"completed", NonUnitalRemainder, RoundsExceeded}
    assert grown > 100


def test_complete_carries_failing_pairs_beyond_the_degree_bound():
    # round 1: the pair at z x z x z (length 5) fails and is skipped, the
    # one at z x z y adjoins y^2 - 17/9 y + 8/9; round 2 must divide the
    # skipped pair again, and it still fails, so completion cannot progress
    A3 = Algebra(QQ, ["x", "y", "z"])
    G = GenSet([parse_poly(A3, "z x z - 3*y + 3"), parse_poly(A3, "z y - 8/9*z")], A3)
    with pytest.raises(RoundsExceeded, match="longer than max_degree=4"):
        complete(G, max_degree=4)
    result = complete(G, max_degree=5)
    assert [str(g) for g in result.gens[2:]] == ["y y - 17/9*y + 8/9", "z x y - y x z - z x + x z"]


def test_complete_orders_carried_pairs_among_new_ones_by_ambiguity():
    # in round 2 the pairs (0, 1) at y x y and (0, 2) at y y x fail again,
    # next to new pairs of shorter ambiguity.  Merged by ambiguity, the new
    # pair (1, 5) at x y adjoins x^2 + 3 before the new pair (0, 4) at y x
    # adjoins x^2 + 3x; the carried pairs listed first would adjoin
    # x^2 + 3x, from (0, 2), before x^2 + 3
    A = Algebra(Zmod(4), ["x", "y"])
    G = GenSet([parse_poly(A, t) for t in ("y x + x x", "x y + 1", "y y + y")], A)
    result = complete(G, max_degree=4, max_rounds=3)
    assert [str(g) for g in result.gens[7:]] == ["x + 3", "x x + 3", "x x + 3*x"]
    assert result.gens == _complete_reference(G, 4, 3).gens


def _count_inits(monkeypatch, cls):
    """A list that grows by one on every construction of cls."""
    calls = []
    init = cls.__init__

    def counting_init(self, *args, **kwargs):
        calls.append(cls)
        init(self, *args, **kwargs)

    monkeypatch.setattr(cls, "__init__", counting_init)
    return calls


def test_one_lead_index_per_generating_set(monkeypatch):
    # the set's index lists the pairs itself, so listing them, checking the
    # set and completing it build no index beyond the one of each GenSet
    indexes = _count_inits(monkeypatch, FreeConcat)
    gensets = _count_inits(monkeypatch, GenSet)
    A = Algebra(Zmod(4), ["x", "y"])
    G = GenSet([parse_poly(A, t) for t in ("y x + x x", "x y + 1", "y y + y")], A)
    assert len(indexes) == len(gensets) == 1
    s_polynomials(G)
    check_groebner(G)
    assert len(indexes) == len(gensets) == 1
    result = complete(G, max_degree=4, max_rounds=3)
    assert len(result.gens) == 10
    assert len(indexes) == len(gensets) == 3


@pytest.mark.parametrize("oracle", [FREE, COMMUTATIVE])
def test_zero_pairs_divide_identically_after_appending_generators(oracle):
    # the lemma incremental completion rests on: FirstMatch picks the
    # lowest generator index that divides, so a division that reached zero
    # against G takes the same steps once generators are appended to G
    rng = random.Random(81)
    checked = 0
    for case in range(120):
        ring = _COMPLETION_RINGS[case % len(_COMPLETION_RINGS)]
        algebra = Algebra(ring, ["x", "y"], oracle)
        G = _random_unital_set(rng, algebra)
        try:
            G = complete(G, max_degree=4, max_rounds=3)  # every pair divides to zero
        except (NonUnitalRemainder, RoundsExceeded):
            pass
        # a unit multiple of an old generator shares its leading word, so
        # it matches wherever that generator does
        extra = [G.gens[rng.randrange(len(G.gens))].scale(helpers.random_unit(rng, ring))]
        extra += [helpers.random_unital_poly(rng, algebra, max_deg=2, max_terms=3)
                  for _ in range(rng.randint(0, 2))]
        bigger = GenSet(G.gens + tuple(extra), algebra)
        for sp in s_polynomials(G):
            trace = divide(sp.value, G)
            if trace.remainder.is_zero():
                assert divide(sp.value, bigger).steps == trace.steps
                checked += len(trace.steps) > 0
    assert checked > 200


@pytest.mark.parametrize("oracle", [FREE, COMMUTATIVE])
def test_remainders_carry_across_appended_generators(oracle):
    # complete resumes a failed pair from its remainder: against a set with
    # generators appended, the remainder divides to the remainder of the
    # dividend itself, zero or not, because every old step is still the
    # first match and the first-match remainder is linear
    rng = random.Random(33)
    carried = 0
    for case in range(160):
        ring = (ZZ, QQ, Zmod(4), Zmod(6))[case % 4]
        algebra = Algebra(ring, ["x", "y"], oracle)
        G = _random_unital_set(rng, algebra)
        extra = tuple(helpers.random_unital_poly(rng, algebra, max_deg=2, max_terms=3)
                      for _ in range(rng.randint(1, 3)))
        bigger = GenSet(G.gens + extra, algebra)
        dividends = [sp.value for sp in s_polynomials(G)]
        dividends += [helpers.random_poly(rng, algebra, max_deg=5) for _ in range(4)]
        for f in dividends:
            remainder = divide(f, G).remainder
            final = divide(f, bigger).remainder
            assert divide(remainder, bigger).remainder == final, (G, extra, f)
            carried += not final.is_zero() and final != remainder
    assert carried > 100


def test_complete_divides_only_new_and_failed_pairs(monkeypatch):
    # perturbed sl2 PBW over Q completes in two rounds at degree 3; the
    # round-wise loop divides 16 s-polynomials, the incremental one 10.
    # Every pair, new or carried, enters the division loop ``_reduce``
    import ugb.spolys as spolys_module

    calls = []
    real_reduce = spolys_module._reduce

    def counting_reduce(*args, **kwargs):
        calls.append(1)
        return real_reduce(*args, **kwargs)

    monkeypatch.setattr(spolys_module, "_reduce", counting_reduce)
    G = pbw_generators(helpers.perturbed_sl2(QQ))
    result = complete(G, max_degree=3)
    incremental = len(calls)
    calls.clear()
    reference = _complete_reference(G, 3, 8)
    assert reference.gens == result.gens
    assert (incremental, len(calls)) == (10, 16)
