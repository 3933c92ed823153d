import random

import pytest
from hypothesis import given, settings, strategies as st

import helpers
from ugb import (
    COMMUTATIVE,
    FREE,
    QQ,
    ZZ,
    Algebra,
    AlgebraMismatch,
    Alphabet,
    BasisViolation,
    GenSet,
    ZeroPolynomial,
    Zmod,
    is_normal,
    oracle_from_name,
)
from ugb.words import _deglex

AZ = Algebra(ZZ, ["x", "y"])
AQ = Algebra(QQ, ["x", "y"])
A6 = Algebra(Zmod(6), ["x", "y"])
AC = Algebra(ZZ, ["x", "y"], COMMUTATIVE)

X, Y = (0,), (1,)


def test_normalize_merges_and_cancels():
    assert AZ.poly([(1, (0, 1)), (2, (0, 1))]) == AZ.poly([(3, (0, 1))])
    assert AZ.poly([(1, X), (-1, X)]).is_zero()
    assert A6.poly([(2, X), (4, X)]).is_zero()


def test_normalize_is_idempotent_on_random_input():
    rng = random.Random(1)
    for algebra in (AZ, AQ, A6, AC):
        for _ in range(50):
            p = helpers.random_poly(rng, algebra)
            assert algebra.poly(p.terms) == p


def test_leading_examples():
    f = AZ.poly([(3, (0, 1)), (2, X)])
    assert f.leading() == (3, helpers.word(0, 1))
    assert AZ.poly([(1, X), (1, Y)]).leading() == (1, helpers.word(1))
    assert AZ.poly([(5, ())]).leading() == (5, b"")
    with pytest.raises(ZeroPolynomial):
        AZ.zero().leading()


def test_terms_strictly_descending():
    rng = random.Random(2)
    for _ in range(50):
        p = helpers.random_poly(rng, AZ)
        keys = [_deglex(w) for _, w in p.terms]
        assert keys == sorted(keys, reverse=True)
        assert all(c != 0 for c, _ in p.terms)


def test_scale_examples():
    f = AZ.poly([(1, Y), (1, ())])
    assert f.scale(1, X, ()) == AZ.poly([(1, (0, 1)), (1, X)])
    g = AC.poly([(1, Y)])
    assert g.scale(1, X, ()) == AC.poly([(1, (0, 1))])


def test_mul_noncommutative_expansion():
    f = AZ.poly([(1, X), (-1, Y)])
    g = AZ.poly([(1, X), (1, Y)])
    # hand expansion: (x - y)(x + y) = xx + xy - yx - yy
    assert f * g == AZ.poly([(1, (0, 0)), (1, (0, 1)), (-1, (1, 0)), (-1, (1, 1))])


def test_scale_keeps_leading_data():
    # context products by monic words never disturb LC, and map LM through
    # the oracle; this is what makes unitality hereditary
    rng = random.Random(3)
    for algebra in (AZ, AQ, A6, AC):
        for _ in range(60):
            g = helpers.random_poly(rng, algebra, nonzero=True)
            u = helpers.random_word(rng, 2, 2, algebra.oracle)
            v = helpers.random_word(rng, 2, 2, algebra.oracle)
            s = g.scale(1, u, v)
            assert s.lc() == g.lc()
            assert s.lm() == helpers.word_product(algebra.oracle, u, g.lm(), v)


@pytest.mark.parametrize("oracle", [FREE, COMMUTATIVE], ids=["free", "commutative"])
def test_context_is_the_reference_product(oracle):
    rng = random.Random(11)
    for _ in range(200):
        u, w, v = (helpers.random_word(rng, 3, 3, oracle) for _ in range(3))
        assert oracle.context(u, w, v) == helpers.word_product(oracle, u, w, v)


small_terms = st.lists(
    st.tuples(st.integers(-5, 5), st.lists(st.integers(0, 1), max_size=3).map(tuple)),
    max_size=4,
)


@given(small_terms, small_terms, small_terms)
def test_add_mul_laws(t1, t2, t3):
    f, g, h = AZ.poly(t1), AZ.poly(t2), AZ.poly(t3)
    assert f + g == g + f
    assert (f + g) + h == f + (g + h)
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert f - f == AZ.zero()


@settings(max_examples=50)
@given(small_terms, small_terms)
def test_commutative_oracle_mul_commutes(t1, t2):
    f = AC.poly([(c, tuple(sorted(w))) for c, w in t1])
    g = AC.poly([(c, tuple(sorted(w))) for c, w in t2])
    assert f * g == g * f


def _reference(terms, modulus):
    """Word -> nonzero coefficient from plain int/Fraction arithmetic."""
    acc = {}
    for c, w in terms:
        acc[w] = acc.get(w, 0) + c
    if modulus:
        acc = {w: c % modulus for w, c in acc.items()}
    return {w: c for w, c in acc.items() if c != 0}


@pytest.mark.parametrize("oracle", [FREE, COMMUTATIVE], ids=["free", "commutative"])
@pytest.mark.parametrize("ring", [ZZ, QQ, Zmod(4)], ids=["Z", "Q", "Z4"])
def test_arithmetic_matches_dict_reference(ring, oracle):
    # Z/4 has zero divisors, so products of nonzero terms can vanish
    algebra = Algebra(ring, ["x", "y"], oracle)
    modulus = getattr(ring, "modulus", None)
    rng = random.Random(7)
    for _ in range(150):
        f = helpers.random_poly(rng, algebra, max_deg=2, max_terms=6)
        g = helpers.random_poly(rng, algebra, max_deg=2, max_terms=6)
        ft, gt = list(f.terms), list(g.terms)
        expected = {
            "+": _reference(ft + gt, modulus),
            "-": _reference(ft + [(-c, w) for c, w in gt], modulus),
            "*": _reference(
                [(a * b, helpers.word_product(oracle, u, v)) for a, u in ft for b, v in gt], modulus
            ),
        }
        for op, got in (("+", f + g), ("-", f - g), ("*", f * g)):
            assert {w: c for c, w in got.terms} == expected[op], op
            keys = [(len(w), w) for _, w in got.terms]
            assert all(a > b for a, b in zip(keys, keys[1:])), op
            assert all(c != 0 for c, _ in got.terms), op


def test_basis_violation_under_commutative_merge():
    with pytest.raises(BasisViolation):
        AC.poly([(1, (1, 0))])
    with pytest.raises(BasisViolation):
        AZ.poly([(1, (0, 7))])


def test_words_of_any_iterable_are_bytes():
    expected = AZ.poly([(1, b"\x00\x01")])
    assert AZ.poly([(1, (0, 1))]) == expected
    assert AZ.poly([(1, [0, 1])]) == expected
    assert AZ.monomial(iter([0, 1])) == expected
    assert AZ.monomial((0,)).scale(1, (), [1]) == expected
    assert type(AZ.poly([(1, [0, 1])]).lm()) is bytes


@pytest.mark.parametrize("letter", [300, -1, 2, "a", None], ids=["300", "-1", "2", "str", "None"])
def test_bad_letters_raise_basis_violation(letter):
    # no ValueError or TypeError from bytes() leaks
    f = AZ.monomial((0,))
    for call in (
        lambda: AZ.poly([(1, (0, letter))]),
        lambda: AZ.monomial([letter]),
        lambda: f.scale(1, (letter,), ()),
        lambda: f.scale(1, (), (letter,)),
    ):
        with pytest.raises(BasisViolation, match="out of range"):
            call()


@pytest.mark.parametrize("word", [5, None, 1.5], ids=["int", "None", "float"])
def test_non_iterable_words_raise_basis_violation(word):
    f = AZ.monomial((0,))
    G = GenSet([f])
    for call in (
        lambda: AZ.poly([(1, word)]),
        lambda: AZ.monomial(word),
        lambda: f.scale(1, word, ()),
        lambda: f.scale(1, (), word),
        lambda: is_normal(word, G),
    ):
        with pytest.raises(BasisViolation, match="out of range"):
            call()


def test_commutative_words_of_any_iterable_are_checked():
    # the sorted-word test compares bytes, so letters are checked first
    assert AC.monomial((0, 1)).lm() == AC.monomial([0, 1]).lm() == b"\x00\x01"
    assert AC.monomial(iter([1, 1])).lm() == b"\x01\x01"
    for word in ((0, 300), [0, -1], iter((1, "a"))):
        with pytest.raises(BasisViolation, match="out of range"):
            AC.monomial(word)
    for word in ((1, 0), [0, 1, 0], iter((1, 0))):
        with pytest.raises(BasisViolation, match="is not a basis word"):
            AC.monomial(word)


def test_bytes_words_are_checked_too():
    with pytest.raises(BasisViolation):
        AZ.poly([(1, b"\x02")])
    with pytest.raises(BasisViolation):
        AC.poly([(1, b"\x01\x00")])


def test_equal_values_hash_equal():
    assert Algebra(ZZ, ["x", "y"]) == AZ and hash(Algebra(ZZ, ["x", "y"])) == hash(AZ)
    assert Alphabet(["x", "y"]) == AZ.alphabet and hash(Alphabet(["x", "y"])) == hash(AZ.alphabet)
    terms = [(2, (0, 1)), (1, X), (-3, ())]
    f, g = AZ.poly(terms), AZ.poly(terms[::-1])
    assert f == g and hash(f) == hash(g)
    assert len({f: 1, g: 2}) == 1


def test_algebra_mismatches():
    f = AZ.poly([(1, X)])
    with pytest.raises(AlgebraMismatch):
        f + AQ.poly([(1, X)])
    with pytest.raises(AlgebraMismatch):
        f + A6.poly([(1, X)])
    with pytest.raises(AlgebraMismatch):
        f + AC.poly([(1, X)])
    with pytest.raises(AlgebraMismatch):
        f + Algebra(ZZ, ["x", "z"]).poly([(1, X)])


def test_poly_text_forms():
    assert str(AZ.zero()) == "0"
    assert str(AZ.poly([(1, (0, 1)), (-1, (1, 0)), (-1, ())])) == "- y x + x y - 1"
    assert str(AZ.poly([(-2, X), (5, ())])) == "- 2*x + 5"
    assert str(A6.poly([(5, X), (3, ())])) == "5*x + 3"
    assert str(AQ.poly([("1/2", Y)])) == "1/2*y"


def test_reprs():
    f = AZ.poly([(2, (0, 1)), (-3, ())])
    assert repr(f) == "2*x y - 3"
    assert repr(GenSet([f], AZ)) == "GenSet([2*x y - 3])"
    assert repr(helpers.sl2()) == "LieAlgebra(Z, rank=3, names=['e', 'f', 'h'])"
    assert repr(Alphabet(["x", "y"])) == "Alphabet(['x', 'y'])"


def test_oracle_from_name():
    assert oracle_from_name("free") is FREE
    assert oracle_from_name("commutative") is COMMUTATIVE
    with pytest.raises(ValueError):
        oracle_from_name("weyl")


def test_gen_and_monomial():
    assert AZ.one() == AZ.poly([(1, ())])
    assert AZ.monomial((0, 1), 4) == AZ.poly([(4, (0, 1))])
