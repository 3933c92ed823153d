import random
import textwrap

import pytest
from hypothesis import given, settings, strategies as st

import helpers
from ugb import (
    COMMUTATIVE,
    FREE,
    QQ,
    ZZ,
    Algebra,
    BudgetExceeded,
    EngineInvariantBroken,
    GenSet,
    LieAlgebra,
    NotAGroebnerBasis,
    NotUnital,
    Poly,
    Zmod,
    complete,
    divide,
    enumerate_basis,
    is_normal,
    normal_form,
    pbw_generators,
)
from ugb.division import NEG
from ugb.words import _deglex

AZ = Algebra(ZZ, ["x", "y"])
X, Y = 0, 1


def _first_step(f, G):
    coeff, left, gen, right = divide(f, G).steps[0]
    return gen, left, right, coeff


def test_divide_first_step_examples():
    G = helpers.gset(AZ, [(1, (X, Y)), (-1, ())])  # xy - 1
    f = AZ.poly([(2, (X, Y, X)), (1, (Y,))])
    assert _first_step(f, G) == (0, b"", helpers.word(X), 2)
    assert divide(AZ.poly([(1, (Y,))]), G).steps == ()

    A6 = Algebra(Zmod(6), ["x"])
    G6 = helpers.gset(A6, [(5, (0,)), (1, ())])  # 5x + 1
    assert _first_step(A6.poly([(4, (0,))]), G6) == (0, b"", b"", 2)
    assert (2 * 5) % 6 == 4  # lambda * LC(g) recovers LT(f)


def test_divide_one_step_to_constant():
    G = helpers.gset(AZ, [(1, (X, Y)), (-1, ())])
    trace = divide(AZ.poly([(1, (X, Y))]), G)
    assert trace.remainder == AZ.one()
    assert len(trace.steps) == 1


def test_divide_normal_input_only_peels():
    G = helpers.gset(AZ, [(1, (X, Y)), (-1, ())])
    f = AZ.poly([(3, (Y, X)), (1, (Y,))])
    trace = divide(f, G)
    assert trace.remainder == f
    assert trace.steps == ()


def test_divide_self_reduction():
    g = AZ.poly([(1, (X, Y)), (-1, ())])
    G = GenSet([g])
    trace = divide(g, G)
    assert trace.remainder.is_zero()
    assert len(trace.steps) == 1
    assert trace.steps[0] == (1, b"", 0, b"")


def test_divide_zero_dividend():
    G = helpers.gset(AZ, [(1, (X, Y)), (-1, ())])
    trace = divide(AZ.zero(), G)
    assert trace.remainder.is_zero()
    assert trace.steps == ()


def test_divide_empty_genset_peels_everything():
    G = GenSet([], AZ)
    f = AZ.poly([(2, (X, Y)), (1, ())])
    trace = divide(f, G)
    assert trace.remainder == f


@pytest.mark.parametrize("ring", [ZZ, QQ, Zmod(6), Zmod(9)])
def test_reconstruction_and_normality(ring):
    rng = random.Random(11)
    algebra = Algebra(ring, ["x", "y"])
    for _ in range(40):
        gens = [helpers.random_unital_poly(rng, algebra) for _ in range(rng.randint(1, 3))]
        G = GenSet(gens, algebra)
        f = helpers.random_poly(rng, algebra, max_deg=4)
        for seed in (None, rng.randrange(10**6)):
            trace = divide(f, G, seed)
            assert helpers.reconstruct(trace, G) == f
            for _, w in trace.remainder.terms:
                assert is_normal(w, G)


def test_reconstruction_commutative_oracle():
    rng = random.Random(12)
    algebra = Algebra(QQ, ["x", "y", "z"], COMMUTATIVE)
    for _ in range(30):
        gens = [helpers.random_unital_poly(rng, algebra) for _ in range(rng.randint(1, 3))]
        G = GenSet(gens, algebra)
        f = helpers.random_poly(rng, algebra, max_deg=4)
        trace = divide(f, G)
        assert helpers.reconstruct(trace, G) == f
        for _, w in trace.remainder.terms:
            assert is_normal(w, G)


def test_remainder_uniqueness_on_groebner_corpora(gb_corpora):
    rng = random.Random(13)
    for name, G in gb_corpora.items():
        for _ in range(40):
            f = helpers.random_poly(rng, G.algebra, max_deg=4)
            base = divide(f, G).remainder
            for s in range(8):
                assert divide(f, G, s).remainder == base, name


def _max_scan_divide(f, G, seed):
    """Reference loop: each leading word is the maximum of a scan over the
    whole working set, and the first match is the head of ``matches``."""
    ring = G.algebra.ring
    oracle = G.algebra.oracle
    rng = None if seed is None else random.Random(seed)
    working = {w: c for c, w in f.terms}
    steps = []
    peeled = []
    while working:
        lm = max(working, key=_deglex)
        lc = working[lm]
        matches = G.leads.matches(lm)
        if not matches:
            peeled.append((lc, lm))
            del working[lm]
            continue
        i, u, v = matches[0] if rng is None else rng.choice(matches)
        lam = helpers.canonical(ring, lc * ring.inv_unit(G.gens[i].lc()))
        steps.append((lam, u, i, v))
        for tc, tw in G.gens[i].terms:
            w = helpers.word_product(oracle, u, tw, v)
            c = helpers.canonical(ring, working.get(w, 0) - lam * tc)
            if not c:
                working.pop(w, None)
            else:
                working[w] = c
    return tuple(steps), tuple(peeled)


@settings(max_examples=200)
@given(
    seed=st.integers(0, 2**32 - 1),
    ring=st.sampled_from([ZZ, QQ, Zmod(4), Zmod(6)]),
    oracle=st.sampled_from([FREE, COMMUTATIVE]),
    strategy=st.one_of(st.none(), st.integers(0, 10**6)),
)
def test_divide_matches_max_scan_reference(seed, ring, oracle, strategy):
    rng = random.Random(seed)
    algebra = Algebra(ring, ["x", "y", "z"], oracle)
    gens = [helpers.random_unital_poly(rng, algebra) for _ in range(rng.randint(1, 4))]
    G = GenSet(gens, algebra)
    # an ideal element plus noise: long divisions with cancellations
    f = helpers.random_ideal_combo(rng, G) + helpers.random_poly(rng, algebra, max_deg=6, max_terms=8)
    trace = divide(f, G, strategy)
    steps, peeled = _max_scan_divide(f, G, strategy)
    assert trace.steps == steps
    # a step is a plain 4-tuple, not a per-step object that compares equal
    assert all(type(s) is tuple and len(s) == 4 for s in trace.steps)
    assert trace.remainder.terms == peeled


# letters 0 and 255, the ends of NEG, drawn often
_any_letter = st.one_of(st.sampled_from([0, 255]), st.integers(0, 255))


@given(st.lists(st.lists(_any_letter, max_size=6).map(bytes), max_size=12))
def test_heap_key_sorts_descending_deglex(words):
    # divide pops the least (-len(w), w.translate(NEG)) as the greatest word
    by_key = sorted(words, key=lambda w: (-len(w), w.translate(NEG)))
    assert by_key == sorted(words, key=_deglex, reverse=True)


def test_long_sl2_division_step_counts(sl2_z):
    A = sl2_z.algebra
    e, f, h = (A.alphabet.index[name] for name in ("e", "f", "h"))
    for n, count in ((4, 800), (5, 3342)):
        trace = divide(A.monomial((h, f, e) * n), sl2_z)
        assert len(trace.steps) == count
        for _, w in trace.remainder.terms:
            assert is_normal(w, sl2_z)


def test_strategy_sensitivity_negative_control():
    # {x^2 - y} is not a Groebner basis; dividing x^3 at the left or the
    # right occurrence of x^2 strands different remainders (yx vs xy)
    G = helpers.gset(AZ, [(1, (X, X)), (-1, (Y,))])
    f = AZ.poly([(1, (X, X, X))])
    first = divide(f, G).remainder
    assert first == AZ.poly([(1, (Y, X))])
    witness = None
    for seed in range(30):
        r = divide(f, G, seed).remainder
        if r != first:
            witness = (seed, r)
            break
    assert witness is not None
    assert witness[1] == AZ.poly([(1, (X, Y))])


def test_budget_exceeded():
    G = helpers.gset(AZ, [(1, (X, Y)), (-1, ())])
    f = AZ.poly([(1, (X, Y)), (1, (Y,))])
    with pytest.raises(BudgetExceeded):
        divide(f, G, step_budget=1)


def test_not_unital_rejected():
    G = helpers.gset(AZ, [(2, (X,))])
    assert not G.is_unital
    with pytest.raises(NotUnital):
        divide(AZ.poly([(1, (X,))]), G)


_XY_MINUS_1 = helpers.gset(AZ, [(1, (X, Y)), (-1, ())])


@pytest.mark.parametrize("call, message", [
    (lambda: GenSet([]), "needs an explicit algebra"),
    (lambda: GenSet([AZ.zero()]), "zero polynomial"),
    (lambda: divide(AZ.one(), _XY_MINUS_1, step_budget=0), "step_budget must be positive"),
    (lambda: complete(_XY_MINUS_1, 0), "max_degree must be positive"),
    (lambda: complete(_XY_MINUS_1, 2, 0), "max_rounds must be positive"),
    (lambda: enumerate_basis(_XY_MINUS_1, -1), "max_degree must be nonnegative"),
    (lambda: LieAlgebra(ZZ, 0), "rank must be positive"),
], ids=["empty-genset", "zero-generator", "step-budget", "complete-degree", "complete-rounds",
        "basis-degree", "lie-rank"])
def test_argument_guards_raise_value_error(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_normal_form_abelian_pair():
    G = pbw_generators(helpers.abelian(ZZ, 2))
    f = G.algebra.poly([(1, (1, 0)), (-1, (0, 1))])  # the generator itself
    assert normal_form(f, G).is_zero()


def test_normal_form_commutative_monomials(example1_q):
    A = example1_q.algebra
    assert normal_form(A.poly([(1, (0, 0))]), example1_q).is_zero()
    f = A.poly([(1, (0,)), (1, ())])
    assert normal_form(f, example1_q) == f


def test_normal_form_strict_rejects_non_groebner():
    G = helpers.gset(AZ, [(1, (X, X)), (-1, (Y,))])
    f = AZ.poly([(1, (X, X, X))])
    with pytest.raises(NotAGroebnerBasis):
        normal_form(f, G)
    assert normal_form(f, G, strict=False) == AZ.poly([(1, (Y, X))])


def test_trace_serialization_shape(inverse_pair_q):
    from ugb.textio import format_trace, record_trace

    A = inverse_pair_q.algebra
    f = A.poly([(2, (0, 1, 0)), (1, (1,))])
    trace = divide(f, inverse_pair_q)
    text = format_trace(record_trace(f, trace, A))
    assert text.splitlines() == [
        "dividend: 2*x y x + y",
        "steps: 1",
        "  step 1: coeff=2 left=1 gen=0 right=x",
        "remainder: y + 2*x",
    ]


_BROKEN_INVERSE = textwrap.dedent("""
    from ugb import QQ, Algebra, EngineInvariantBroken, GenSet, divide

    A = Algebra(QQ, ["x", "y"])
    G = GenSet([A.poly([(1, (0, 1)), (-1, ())])], A)
    G.inv_leads = (QQ.coerce(2),)  # the true inverse of the lead is 1
    try:
        divide(A.poly([(1, (0, 1, 0))]), G)
    except EngineInvariantBroken as exc:
        print(exc)
""")


def test_broken_lead_inverse_raises_engine_invariant():
    # a corrupted lead inverse leaves the leading term standing
    G = helpers.gset(AZ, [(1, (X, Y)), (-1, ())])
    G.inv_leads = (2,)
    with pytest.raises(EngineInvariantBroken, match="failed to cancel"):
        divide(AZ.poly([(1, (X, Y, X))]), G)
    assert helpers.run_optimized(_BROKEN_INVERSE) == "leading term failed to cancel\n"


_BROKEN_TAIL = textwrap.dedent("""
    from ugb import QQ, Algebra, EngineInvariantBroken, GenSet, Poly, divide

    A = Algebra(QQ, ["x", "y"])
    X, Y = 0, 1
    G = GenSet([A.poly([(1, (X, Y)), (-1, ())])], A)
    G.gens = (Poly(A, ((1, bytes((X, Y))), (-1, bytes((Y, Y, Y))))),)  # a tail above the lead
    try:
        divide(A.poly([(1, (X, Y))]), G)
    except EngineInvariantBroken as exc:
        print(exc)
""")


def test_broken_generator_tail_raises_engine_invariant():
    # a corrupted tail word yyy above the lead xy: the step that cancels
    # xy puts yyy into the working set, and popping it next breaks the
    # strict decrease of the leading monomial (unchecked, yyy would be
    # peeled into the remainder)
    G = helpers.gset(AZ, [(1, (X, Y)), (-1, ())])
    G.gens = (Poly(AZ, ((1, helpers.word(X, Y)), (-1, helpers.word(Y, Y, Y)))),)
    with pytest.raises(EngineInvariantBroken, match="failed to decrease"):
        divide(AZ.poly([(1, (X, Y))]), G)
    assert helpers.run_optimized(_BROKEN_TAIL) == "leading monomial failed to decrease\n"
