import random

import pytest
from hypothesis import given, settings, strategies as st

import helpers
from conftest import FIXTURES
from ugb import (
    COMMUTATIVE,
    FREE,
    QQ,
    ZZ,
    Algebra,
    BasisViolation,
    GenSet,
    LieAlgebra,
    NotAGroebnerBasis,
    NotUnital,
    Zmod,
    check_groebner,
    count_basis,
    decompose,
    divide,
    enumerate_basis,
    is_normal,
    load_problem,
    normal_form,
    pbw_generators,
)

AZ = Algebra(ZZ, ["x", "y"])
X, Y = 0, 1


def test_is_normal_examples():
    G = helpers.gset(AZ, [(1, (X, Y)), (-1, ())])
    assert is_normal((), G)
    assert not is_normal((X, Y, X), G)
    assert is_normal((Y, X), G)
    assert not is_normal(helpers.word(X, Y), G)
    with pytest.raises(BasisViolation):
        is_normal((X, 300), G)


def test_enumerate_example1(example1_q):
    basis = enumerate_basis(example1_q, 3)
    assert basis.counts() == (1, 3, 0, 0)
    assert basis.total() == 4
    assert basis.by_degree[1] == [helpers.word(0), helpers.word(1), helpers.word(2)]
    assert basis._fields == ("by_degree",)


@pytest.mark.parametrize(
    "oracle, counts", [(FREE, (1, 2, 4, 8)), (COMMUTATIVE, (1, 2, 3, 4))], ids=["free", "commutative"]
)
def test_enumerate_free_algebra_no_relations(oracle, counts):
    # no lead word prunes, so every word the oracle lets grow is listed
    G = GenSet([], Algebra(ZZ, ["x", "y"], oracle))
    basis = enumerate_basis(G, 3)
    assert basis.counts() == counts
    for d in range(4):
        assert basis.by_degree[d] == helpers.basis_words(oracle, 2, d)


def test_enumerate_sl2_counts_match_brute_force(sl2_z):
    basis = enumerate_basis(sl2_z, 4)
    assert basis.counts() == (1, 3, 6, 10, 15)
    for d in range(5):
        assert basis.by_degree[d] == helpers.brute_normal_words(sl2_z, d)


def test_enumerate_counts_match_brute_force_random():
    rng = random.Random(31)
    for _ in range(20):
        gens = [helpers.random_unital_poly(rng, AZ, max_deg=3) for _ in range(2)]
        G = GenSet(gens, AZ)
        basis = enumerate_basis(G, 4, strict=False)
        for d in range(5):
            assert basis.by_degree[d] == helpers.brute_normal_words(G, d)


def test_enumerate_matches_brute_force_on_wider_random_sets():
    # three or four letters, two to four generators of mixed lead lengths,
    # under both oracles; the brute force goes through the factor test
    rng = random.Random(37)
    mixed = 0
    for oracle in (FREE, COMMUTATIVE):
        for n_letters in (3, 4):
            algebra = Algebra(ZZ, ["x", "y", "z", "t"][:n_letters], oracle)
            for _ in range(12):
                gens = [
                    helpers.random_unital_poly(rng, algebra, max_deg=rng.randint(1, 4))
                    for _ in range(rng.randint(2, 4))
                ]
                G = GenSet(gens, algebra)
                mixed += len(set(map(len, G.lead_words))) > 1
                basis = enumerate_basis(G, 4, strict=False)
                assert basis.by_degree == [helpers.brute_normal_words(G, d) for d in range(5)]
    assert mixed >= 24


@st.composite
def _monomial_sets(draw):
    # monic monomials: the counts depend on the leading words alone
    oracle = draw(st.sampled_from([FREE, COMMUTATIVE]))
    n_letters = draw(st.integers(1, 3))
    algebra = Algebra(ZZ, ["x", "y", "z"][:n_letters], oracle)
    words = draw(st.lists(st.lists(st.integers(0, n_letters - 1), max_size=4), max_size=4))
    if oracle is COMMUTATIVE:
        words = map(sorted, words)
    return GenSet([algebra.monomial(w) for w in words], algebra)


@settings(max_examples=300)
@given(G=_monomial_sets(), max_degree=st.integers(0, 7))
def test_count_basis_equals_the_enumerated_counts(G, max_degree):
    assert count_basis(G, max_degree) == enumerate_basis(G, max_degree, strict=False).counts()


@pytest.mark.parametrize("oracle", [FREE, COMMUTATIVE], ids=["free", "commutative"])
def test_count_basis_of_a_constant_generator_is_all_zero(oracle):
    algebra = Algebra(ZZ, ["x", "y"], oracle)
    G = GenSet([algebra.monomial(()), algebra.monomial((0, 1))], algebra)
    assert count_basis(G, 5) == enumerate_basis(G, 5, strict=False).counts() == (0,) * 6


@pytest.mark.parametrize("path", sorted(FIXTURES.iterdir()), ids=lambda path: path.name)
def test_count_basis_equals_the_enumerated_counts_on_every_fixture(path):
    G = load_problem(path)
    if isinstance(G, LieAlgebra):
        G = pbw_generators(G)
    if not G.is_unital:
        with pytest.raises(NotUnital):
            count_basis(G, 6)
        return
    assert count_basis(G, 6) == enumerate_basis(G, 6, strict=False).counts()
    with pytest.raises(ValueError, match="max_degree must be nonnegative"):
        count_basis(G, -1)


def test_enumerate_strict_rejects_non_groebner():
    G = helpers.gset(AZ, [(1, (X, X)), (-1, (Y,))])
    with pytest.raises(NotAGroebnerBasis):
        enumerate_basis(G, 3)
    basis = enumerate_basis(G, 3, strict=False)
    # G-normal words avoid x^2 as a factor
    assert helpers.word(X, X) not in basis.by_degree[2]
    assert helpers.word(X, Y) in basis.by_degree[2]


def test_enumerate_constant_generator_kills_everything():
    G = helpers.gset(AZ, [(1, ()), (1, (X,))])  # leading word is x, but adjoin 1 + ...
    # a true constant: leading word empty
    G2 = helpers.gset(AZ, [(3, ())])
    # 3 is not a unit over Z, so strict checking is unavailable; the factor
    # test still makes every word non-normal
    basis_words = [w for d in range(3) for w in helpers.brute_normal_words(G2, d)]
    assert basis_words == []


def test_decompose_examples(inverse_pair_q):
    A = inverse_pair_q.algebra
    f = A.poly([(3, (Y, X)), (2, ())])  # already normal? yx reducible by yx-1
    # pick a genuinely normal element instead: y + 2
    g = A.poly([(3, (1,)), (2, ())])
    ideal_part, normal_part = decompose(g, inverse_pair_q)
    assert ideal_part.is_zero()
    assert normal_part == g

    g1 = inverse_pair_q.gens[0]
    ideal_part, normal_part = decompose(g1, inverse_pair_q)
    assert ideal_part == g1
    assert normal_part.is_zero()


def test_decompose_one_step_example():
    G = helpers.gset(AZ, [(1, (X, Y)), (-1, ())])
    assert check_groebner(G).is_groebner  # xy has no self-overlap
    f = AZ.poly([(1, (X, Y)), (1, (Y,))])
    ideal_part, normal_part = decompose(f, G)
    assert ideal_part == AZ.poly([(1, (X, Y)), (-1, ())])
    assert normal_part == AZ.poly([(1, (Y,)), (1, ())])
    assert ideal_part + normal_part == f


def test_decompose_strict_rejects_non_groebner():
    G = helpers.gset(AZ, [(1, (X, X)), (-1, (Y,))])
    with pytest.raises(NotAGroebnerBasis):
        decompose(AZ.poly([(1, (X,))]), G)
    ideal_part, normal_part = decompose(AZ.poly([(1, (X,))]), G, strict=False)
    assert ideal_part.is_zero()
    assert normal_part == AZ.poly([(1, (X,))])


def test_decompose_reconstruction_idempotence_linearity(gb_corpora):
    rng = random.Random(32)
    for name, G in gb_corpora.items():
        for _ in range(30):
            f = helpers.random_poly(rng, G.algebra, max_deg=4)
            g = helpers.random_poly(rng, G.algebra, max_deg=4)
            fi, fn = decompose(f, G)
            assert fi + fn == f, name
            assert fi == helpers.ideal_part(divide(f, G), G), name
            # idempotence: the normal part is a fixed point
            ni, nn = decompose(fn, G)
            assert ni.is_zero() and nn == fn, name
            # linearity of the normal projection
            si, sn = decompose(f + g, G)
            assert sn == fn + decompose(g, G)[1], name


@pytest.mark.parametrize("oracle", [FREE, COMMUTATIVE], ids=["free", "commutative"])
@pytest.mark.parametrize("ring", [ZZ, QQ, Zmod(4), Zmod(6)], ids=str)
def test_decompose_ideal_part_is_the_step_expansion(ring, oracle):
    # f - NF(f) against the steps' own sum, on sets that are mostly not
    # Groebner bases and inputs with long, cancelling divisions
    rng = random.Random(34)
    algebra = Algebra(ring, ["x", "y", "z"], oracle)
    not_groebner = 0
    for _ in range(25):
        G = GenSet([helpers.random_unital_poly(rng, algebra) for _ in range(rng.randint(1, 4))], algebra)
        f = helpers.random_ideal_combo(rng, G) + helpers.random_poly(rng, algebra, max_deg=5, max_terms=6)
        trace = divide(f, G)
        assert decompose(f, G, strict=False) == (helpers.ideal_part(trace, G), trace.remainder)
        not_groebner += not check_groebner(G).is_groebner
    assert not_groebner > 0


def test_normal_part_is_normal(gb_corpora):
    rng = random.Random(33)
    for name, G in gb_corpora.items():
        for _ in range(20):
            f = helpers.random_poly(rng, G.algebra, max_deg=4)
            _, fn = decompose(f, G)
            for _, w in fn.terms:
                assert is_normal(w, G), name


def test_membership_characterization(sl2_z):
    # normal part vanishes exactly on ideal members
    rng = random.Random(34)
    for _ in range(20):
        h = helpers.random_ideal_combo(rng, sl2_z, max_context=1)
        assert decompose(h, sl2_z)[1].is_zero()
        f = helpers.random_poly(rng, sl2_z.algebra, max_deg=3, nonzero=True)
        _, fn = decompose(f, sl2_z)
        if not fn.is_zero():
            assert not normal_form(f, sl2_z).is_zero()
