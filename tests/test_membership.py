import random
import textwrap

import pytest

import helpers
from conftest import FIXTURES
from ugb import (
    COMMUTATIVE,
    FREE,
    QQ,
    ZZ,
    Algebra,
    BoundTooSmall,
    CompletionFailure,
    EngineInvariantBroken,
    GenSet,
    LieAlgebra,
    Zmod,
    build_truncation,
    check_groebner,
    complete,
    enumerate_basis,
    expand_witness,
    is_member,
    load_problem,
    normal_form,
    parse_poly,
    pbw_generators,
)
from ugb.membership import _Echelon
from ugb.words import _deglex

AZ1 = Algebra(ZZ, ["x"])
AZ = Algebra(ZZ, ["x", "y"])
AQ = Algebra(QQ, ["x", "y"])


def _typed(witness):
    """A witness with each coefficient's type beside it."""
    return None if witness is None else [(type(c), c, u, i, v) for c, u, i, v in witness]


def test_build_truncation_dedupes_rows():
    G = GenSet([AZ1.poly([(1, (0,))])])
    T = build_truncation(G, 2)
    # contexts (1,1), (1,x), (x,1) give x, x^2, x^2; the duplicate drops
    assert [str(p) for p in T.rows] == ["x", "x x"]
    assert T.provenance == [(0, b"", b""), (0, b"", helpers.word(0))]


def test_build_truncation_degree_arithmetic():
    G = GenSet([AZ.poly([(1, (0, 1)), (-1, ())])])
    T = build_truncation(G, 2)
    assert len(T.rows) == 1  # any context pushes the leading word past 2
    assert str(T.rows[0]) == "x y - 1"


def test_build_truncation_empty_genset():
    G = GenSet([], AZ)
    T = build_truncation(G, 2)
    assert len(T.rows) == 0
    r = is_member(AZ.poly([(1, (0,))]), T)
    assert not r.member
    assert is_member(AZ.zero(), T).member


def test_build_truncation_bound_too_small():
    G = GenSet([AZ.poly([(1, (0, 1)), (-1, ())])])
    with pytest.raises(BoundTooSmall):
        build_truncation(G, 1)


def test_member_over_q_with_witness():
    G = GenSet([AQ.poly([(1, (0, 1)), (-1, ())])])
    T = build_truncation(G, 3)
    f = AQ.poly([(1, (0, 0, 1)), (-1, (0,))])  # x * (xy - 1)
    r = is_member(f, T)
    assert r.member
    assert expand_witness(G, r.witness) == f


def test_not_member_all_members_have_zero_constant_term():
    G = GenSet([AZ1.poly([(2, (0,))])])
    T = build_truncation(G, 2)
    r = is_member(AZ1.one(), T)
    assert not r.member
    assert r.witness is None


def test_member_integer_combination():
    G = GenSet([AZ1.poly([(4, (0,))]), AZ1.poly([(6, (0,))])])
    T = build_truncation(G, 2)
    r = is_member(AZ1.poly([(2, (0,))]), T)
    assert r.member
    assert expand_witness(G, r.witness) == AZ1.poly([(2, (0,))])
    # the xgcd row operation on 4x and 6x leaves the pivot 2x = 6x - 4x
    assert r.witness == ((-1, b"", 0, b""), (1, b"", 1, b""))
    # and 3x needs an odd combination of 4 and 6: impossible
    assert not is_member(AZ1.poly([(3, (0,))]), T).member


def test_member_never_divides_by_non_units_over_z():
    G = GenSet([AZ1.poly([(2, (0,))])])
    T = build_truncation(G, 3)
    assert is_member(AZ1.poly([(6, (0,))]), T).member
    assert not is_member(AZ1.poly([(3, (0,))]), T).member
    r = is_member(AZ1.poly([(2, (0, 0)), (4, (0,))]), T)
    assert r.member
    assert expand_witness(G, r.witness) == AZ1.poly([(2, (0, 0)), (4, (0,))])


def test_member_mod_n():
    A4 = Algebra(Zmod(4), ["x"])
    G = GenSet([A4.poly([(2, (0,))])])
    T = build_truncation(G, 2)
    assert is_member(A4.poly([(2, (0,))]), T).member
    # 2x * anything stays in {0, 2x, 2x^2, ...}: x itself is unreachable
    assert not is_member(A4.poly([(1, (0,))]), T).member
    # 3 * 2x = 6x = 2x mod 4
    r = is_member(A4.poly([(2, (0,))]), T)
    assert expand_witness(G, r.witness) == A4.poly([(2, (0,))])
    # 2 * (2x + y) = 2y mod 4, but y would need c * (2x + y) with c = 1
    # at y and 2c = 0 at x, and no residue c mod 4 is both
    A4 = Algebra(Zmod(4), ["x", "y"])
    G = GenSet([A4.poly([(2, (0,)), (1, (1,))])])
    T = build_truncation(G, 1)
    r = is_member(A4.poly([(2, (1,))]), T)
    assert r.member
    assert r.witness == ((2, b"", 0, b""),)
    assert not is_member(A4.poly([(1, (1,))]), T).member


def test_member_witness_is_checked_against_the_query(monkeypatch):
    G = GenSet([AZ1.poly([(2, (0,))])])
    T = build_truncation(G, 2)
    # a solver answer whose combination does not expand to the query
    monkeypatch.setattr(T.echelon, "solve", lambda target: {0: 3})
    with pytest.raises(EngineInvariantBroken):
        is_member(AZ1.poly([(4, (0,))]), T)


_BROKEN_RECIPE = textwrap.dedent("""
    from ugb import ZZ, Algebra, EngineInvariantBroken, GenSet, build_truncation, is_member

    A = Algebra(ZZ, ["x"])
    G = GenSet([A.poly([(2, (0,))])], A)
    T = build_truncation(G, 2)
    solver = T.echelon
    # the pivot 2x is input row 0 once; its recipe now says twice
    _, atom = solver.pivots[T.col_index[b"\\x00"]]
    recipe = solver.recipes[atom - solver.first_atom]
    recipe[0] = (recipe[0][0], recipe[0][1] + 1)
    try:
        is_member(A.poly([(4, (0,))]), T)
    except EngineInvariantBroken as exc:
        print(exc)
""")


def test_corrupt_recipe_fails_the_witness_check():
    G = GenSet([AZ1.poly([(2, (0,))])])
    T = build_truncation(G, 2)
    solver = T.echelon
    _, atom = solver.pivots[T.col_index[helpers.word(0)]]
    recipe = solver.recipes[atom - solver.first_atom]
    recipe[0] = (recipe[0][0], recipe[0][1] + 1)
    with pytest.raises(EngineInvariantBroken, match="witness does not expand"):
        is_member(AZ1.poly([(4, (0,))]), T)
    assert helpers.run_optimized(_BROKEN_RECIPE) == "membership witness does not expand to the query\n"


def test_member_bound_checked():
    G = GenSet([AZ.poly([(1, (0, 1)), (-1, ())])])
    T = build_truncation(G, 2)
    with pytest.raises(BoundTooSmall):
        is_member(AZ.poly([(1, (0, 0, 1))]), T)


@pytest.mark.parametrize("ring", [ZZ, QQ, Zmod(6), Zmod(4)])
def test_random_combinations_are_members_with_exact_witnesses(ring):
    rng = random.Random(51)
    algebra = Algebra(ring, ["x", "y"])
    for _ in range(15):
        gens = [helpers.random_unital_poly(rng, algebra, max_deg=2) for _ in range(2)]
        G = GenSet(gens, algebra)
        T = build_truncation(G, 4)
        for _ in range(5):
            h = helpers.random_ideal_combo(rng, G, max_context=1, parts=2)
            if any(len(w) > 4 for _, w in h.terms):
                continue
            r = is_member(h, T)
            assert r.member
            assert expand_witness(G, r.witness) == h


def test_commutative_oracle_membership(example1_q):
    T = build_truncation(example1_q, 3)
    A = example1_q.algebra
    assert is_member(A.poly([(1, (0, 0))]), T).member
    assert is_member(A.poly([(2, (0, 1, 2))]), T).member
    assert not is_member(A.poly([(1, (0,)), (1, ())]), T).member


def test_oracle_agrees_with_reduction_engine(sl2_z, example1_q):
    rng = random.Random(52)
    heis_z4 = pbw_generators(load_problem(FIXTURES / "heisenberg_z4.lie"))
    sl2_z5 = pbw_generators(helpers.sl2(Zmod(5)))
    for G, bound in ((sl2_z, 3), (example1_q, 3), (heis_z4, 4), (sl2_z5, 3)):
        T = build_truncation(G, bound)
        corpus = []
        for _ in range(15):
            corpus.append(helpers.random_poly(rng, G.algebra, max_deg=bound))
            h = helpers.random_ideal_combo(rng, G, max_context=1, parts=2)
            if all(len(w) <= bound for _, w in h.terms):
                corpus.append(h)
        for f in corpus:
            by_division = normal_form(f, G).is_zero()
            by_oracle = is_member(f, T).member
            assert by_division == by_oracle


def _lift_reference(T):
    """The congruence-row lift that solved Z/n before the residue
    echelon: the module rows over Z with n * e_k appended for every
    column k.  Returns the membership verdict as a function of the
    query."""
    n = T.genset.algebra.ring.modulus
    rows = [{T.col_index[w]: c for c, w in p.terms} for p in T.rows]
    echelon = _Echelon(rows + [{k: n} for k in range(len(T.columns))], ZZ.quotient, ZZ.modulus)
    return lambda f: echelon.solve({T.col_index[w]: c for c, w in f.terms}) is not None


@pytest.mark.parametrize("oracle", [FREE, COMMUTATIVE], ids=["free", "commutative"])
@pytest.mark.parametrize("modulus", [4, 6, 8, 9, 10, 12, 5])
def test_residue_echelon_agrees_with_the_lift(modulus, oracle):
    rng = random.Random(53 * modulus + (oracle is COMMUTATIVE))
    algebra = Algebra(Zmod(modulus), ["x", "y", "z"], oracle)
    bound = 3
    verdicts = set()
    for _ in range(20):
        # any coefficients, non-unit leading ones included
        gens = [
            helpers.random_poly(rng, algebra, max_deg=2, max_terms=3, nonzero=True)
            for _ in range(rng.randint(1, 3))
        ]
        G = GenSet(gens, algebra)
        T = build_truncation(G, bound)
        lifted = _lift_reference(T)
        for k in range(10):
            if k % 2:
                f = helpers.random_poly(rng, algebra, max_deg=bound)
            else:
                f = helpers.random_ideal_combo(rng, G, max_context=1, parts=2)
                if any(len(w) > bound for _, w in f.terms):
                    continue
            r = is_member(f, T)
            assert r.member == lifted(f)
            if r.member:
                assert expand_witness(G, r.witness) == f
            verdicts.add(r.member)
    assert verdicts == {True, False}


def test_gl2_over_z4_at_bound_5():
    # 1878 rows by 1365 columns: a lift to Z with a congruence row per
    # column runs for minutes here, the residue echelon well under a second
    G = load_problem(FIXTURES / "gl2_z4.gb")
    T = build_truncation(G, 5)
    f = parse_poly(G.algebra, "2*e22 e21 e12 e11 e11 + 2*e22 e21 e11 e12 e11 + 2*e22 e21 e12 e11")
    f = f + G.gens[4].scale(3, (0,), (3, 3))
    r = is_member(f, T)
    assert r.member
    assert expand_witness(G, r.witness) == f
    assert _typed(r.witness) == _typed(helpers.eager_witness(T, helpers.eager_echelon(T), f))
    # plus a non-decreasing word, which is a basis element of the quotient
    assert not is_member(f + parse_poly(G.algebra, "e11 e12 e21 e22 e22"), T).member


# -1/2 * e11 * (gen 4) * e22 e22 plus 2 * e22 e22 * (gen 2) * e12
GL2_Q_MEMBER = (
    "2*e22 e22 e21 e12 e12 - 2*e22 e22 e12 e21 e12 - 1/2*e11 e22 e12 e22 e22"
    " + 1/2*e11 e12 e22 e22 e22 - 2*e22 e22 e22 e12 + 2*e22 e22 e11 e12"
    " - 1/2*e11 e12 e22 e22"
)


def test_gl2_over_q_at_bound_5():
    # the Q twin of the Z/4 case: integral rationals stay ints in the
    # echelon, which answers in well under a second
    G = load_problem(FIXTURES / "gl2_q.gb")
    T = build_truncation(G, 5)
    f = parse_poly(G.algebra, GL2_Q_MEMBER)
    g = f + parse_poly(G.algebra, "1/3*e11 e12 e21 e22 e22")
    # gl2 PBW is a Groebner basis, so membership is a zero normal form
    r = is_member(f, T)
    assert r.member and normal_form(f, G).is_zero()
    assert expand_witness(G, r.witness) == f
    assert _typed(r.witness) == _typed(helpers.eager_witness(T, helpers.eager_echelon(T), f))
    assert not is_member(g, T).member and not normal_form(g, G).is_zero()


@pytest.mark.parametrize("oracle", [FREE, COMMUTATIVE], ids=["free", "commutative"])
@pytest.mark.parametrize("ring", [ZZ, QQ, Zmod(4), Zmod(5), Zmod(6)], ids=str)
def test_witnesses_equal_the_eager_reference(ring, oracle):
    # the recipes expanded by one backward pass give the combination that
    # eager tracking carried through every row operation, exactly
    rng = random.Random(57)
    algebra = Algebra(ring, ["x", "y", "z"], oracle)
    bound = 3
    verdicts, replaced, annihilated = set(), False, False
    for _ in range(15):
        # any coefficients, non-unit leading ones included
        gens = [
            helpers.random_poly(rng, algebra, max_deg=2, max_terms=3, nonzero=True)
            for _ in range(rng.randint(1, 3))
        ]
        G = GenSet(gens, algebra)
        T = build_truncation(G, bound)
        solver = T.echelon
        reference = helpers.eager_echelon(T)
        # the same elimination: equal pivot rows, entry types included
        assert {c: [(t, type(v), v) for t, v in row.items()] for c, (row, _) in solver.pivots.items()} == {
            c: [(t, type(v), v) for t, v in pair[0].items()] for c, pair in reference.pivots.items()
        }
        replaced |= len(solver.recipes) > len(solver.pivots)
        annihilated |= any(r and r[0][0] >= solver.first_atom for r in solver.recipes)
        for k in range(8):
            if k % 2:
                f = helpers.random_poly(rng, algebra, max_deg=bound, nonzero=True)
            else:
                f = helpers.random_ideal_combo(rng, G, max_context=1, parts=3)
                if f.is_zero() or any(len(w) > bound for _, w in f.terms):
                    continue
            r = is_member(f, T)
            assert _typed(r.witness) == _typed(helpers.eager_witness(T, reference, f))
            verdicts.add(r.member)
    assert verdicts == {True, False}
    # the xgcd pivot replacement ran wherever a leading entry can be a
    # non-unit, and the annihilator rows wherever a nonzero one can
    assert replaced == (ring in (ZZ, Zmod(4), Zmod(6)))
    assert annihilated == (ring in (Zmod(4), Zmod(6)))


def _typed_rows(rows):
    return [[(type(c), c, w) for c, w in p.terms] for p in rows]


@pytest.mark.parametrize("oracle, bound", [
    pytest.param(FREE, 3, id="free"),
    pytest.param(COMMUTATIVE, 3, id="commutative"),
    pytest.param(COMMUTATIVE, 5, id="commutative-5"),
])
@pytest.mark.parametrize("ring", [ZZ, QQ, Zmod(4), Zmod(6)], ids=str)
def test_build_truncation_equals_the_scale_reference(ring, oracle, bound):
    rng = random.Random(58)
    algebra = Algebra(ring, ["x", "y", "z"], oracle)
    deduped = False
    for _ in range(10):
        gens = [
            helpers.random_poly(rng, algebra, max_deg=2, max_terms=3, nonzero=True)
            for _ in range(rng.randint(1, 3))
        ]
        G = GenSet(gens, algebra)
        T = build_truncation(G, bound)
        rows, provenance = helpers.reference_truncation(G, bound)
        assert _typed_rows(T.rows) == _typed_rows(rows)
        assert T.provenance == provenance
        assert all(p.algebra == algebra for p in T.rows)
        splits = sum(
            len(helpers.basis_words(oracle, 3, a)) * len(helpers.basis_words(oracle, 3, s - a))
            for w in G.lead_words for s in range(bound - len(w) + 1) for a in range(s + 1)
        )
        deduped |= len(T.rows) < splits
    # the reference's every-split loop met repeated rows: u * g * v =
    # v * g * u commutatively, and a monomial's contexts can meet in the
    # free algebra
    assert deduped


@pytest.mark.parametrize("oracle", [FREE, COMMUTATIVE], ids=["free", "commutative"])
@pytest.mark.parametrize("n_letters", [1, 2, 3, 4])
def test_truncation_columns_are_the_basis_words_descending(n_letters, oracle):
    # the column order fixes every pivot, so every witness
    algebra = Algebra(ZZ, [f"x{i}" for i in range(n_letters)], oracle)
    for bound in range(5):
        T = build_truncation(GenSet([], algebra), bound)
        words = [w for d in range(bound + 1) for w in helpers.basis_words(oracle, n_letters, d)]
        assert T.columns == sorted(words, key=_deglex, reverse=True)
        assert all(T.col_index[w] == t for t, w in enumerate(T.columns))
        assert len(T.col_index) == len(words)


def _freeness_certificate(G, bound):
    """From the truncation of G at the bound: the column count, the pivot
    words of the echelon, the words that are not G-normal, and the pivot
    entries that are not units.  A commutative G is read through its free
    lift, so the echelon forms no word product that the reducer shares."""
    lift = helpers.free_lift(G) if G.algebra.oracle is COMMUTATIVE else G
    T = build_truncation(lift, bound)
    ring = G.algebra.ring
    pivots = T.echelon.pivots
    normal = {w for row in enumerate_basis(G, bound, strict=False).by_degree for w in row}
    non_units = [row[c] for c, (row, _) in pivots.items() if ring.inv_unit(row[c]) is None]
    return len(T.columns), {T.columns[c] for c in pivots}, set(T.columns) - normal, non_units


# corpora built in code beside the fixture files
_GL3 = {"gl3/Z": ZZ, "gl3/Q": QQ, "gl3/Z/4": Zmod(4)}


def _fixture_set(name):
    if name in _GL3:
        return pbw_generators(helpers.gl(3, _GL3[name]))
    G = load_problem(FIXTURES / name)
    return pbw_generators(G) if isinstance(G, LieAlgebra) else G


@pytest.mark.parametrize("name, bound, columns, normal", [
    ("sl2.lie", 4, 121, 35),
    ("heisenberg_z4.lie", 4, 121, 35),
    ("gl2_z4.gb", 5, 1365, 126),
    ("gl2_q.gb", 5, 1365, 126),
    ("inverse_pair.gb", 4, 31, 9),
    ("example1.gb", 4, 121, 4),
    # 9 letters: 1 + 9 + 81 + 729 words, and C(12, 3) non-decreasing ones
    ("gl3/Z", 3, 820, 220),
    ("gl3/Q", 3, 820, 220),
    ("gl3/Z/4", 3, 820, 220),
])
def test_groebner_basis_normal_words_are_a_free_basis(name, bound, columns, normal):
    # the paper's freeness theorem against the echelon, which shares no
    # code with the reducer: the order is graded, so for a Groebner basis
    # the rows span the ideal up to the bound, and the normal words are a
    # free basis of the quotient there exactly when the pivots sit on the
    # other words and every pivot entry is a unit
    G = _fixture_set(name)
    n_columns, pivot_words, non_normal, non_units = _freeness_certificate(G, bound)
    assert check_groebner(G).is_groebner
    assert (n_columns, n_columns - len(non_normal)) == (columns, normal)
    assert pivot_words == non_normal
    assert non_units == []


def test_freeness_certificate_fails_off_a_groebner_basis():
    G = _fixture_set("perturbed_sl2.lie")
    _, pivot_words, non_normal, non_units = _freeness_certificate(G, 4)
    assert not check_groebner(G).is_groebner
    assert (len(pivot_words), len(non_normal)) == (91, 86)
    assert non_units == [2] * 5


_FREENESS_RINGS = (ZZ, QQ, Zmod(4), Zmod(5), Zmod(6))


def _completed_draws(oracle):
    """(input, completion) for 60 draws of two random unital generators in
    x y z, over the five rings in turn; draws that complete() refuses are
    counted in the second value."""
    rng = random.Random(11)
    completed, refused = [], 0
    for k in range(60):
        algebra = Algebra(_FREENESS_RINGS[k % 5], ["x", "y", "z"], oracle)
        gens = [helpers.random_unital_poly(rng, algebra, max_deg=3, max_terms=3) for _ in range(2)]
        G = GenSet(gens, algebra)
        try:
            completed.append((G, complete(G, 5)))
        except CompletionFailure:
            refused += 1
    return completed, refused


def test_completed_commutative_sets_are_free_through_the_lift():
    completed, refused = _completed_draws(COMMUTATIVE)
    checked = 0
    for _, G in completed:
        # 2 is the commutators' degree; below the longest lead word the
        # truncation does not hold every generator
        for bound in range(max(2, *map(len, G.lead_words)), 5):
            _, pivot_words, non_normal, non_units = _freeness_certificate(G, bound)
            assert pivot_words == non_normal, (G, bound)
            assert non_units == [], (G, bound)
            checked += 1
    assert (len(completed), refused, checked) == (43, 17, 96)


def _free_bounds(G):
    """Bounds up to 4 from the longest lead word of G: below it the
    truncation does not hold every generator."""
    return range(max(map(len, G.lead_words)), 5)


def test_completed_free_sets_are_free():
    completed, refused = _completed_draws(FREE)
    checked = grown = failed = 0
    for G, C in completed:
        for bound in _free_bounds(C):
            _, pivot_words, non_normal, non_units = _freeness_certificate(C, bound)
            assert pivot_words == non_normal, (C, bound)
            assert non_units == [], (C, bound)
            checked += 1
        # negative control: an input that completion grew is no Groebner
        # basis, and most already fail the certificate within the bounds
        if len(C.gens) > len(G.gens):
            grown += 1
            certificates = (_freeness_certificate(G, bound) for bound in _free_bounds(G))
            failed += any(pivot_words != non_normal for _, pivot_words, non_normal, _ in certificates)
    assert (len(completed), refused, checked, grown, failed) == (42, 18, 96, 14, 12)


# (ring, a, b, m, generators after completion, normal words up to degree 3,
# pivot words before completion): m of [x_a, x_b] in gl3 moved by +1
@pytest.mark.parametrize("ring, a, b, m, gens, normal, pivots", [
    (QQ, 1, 0, 6, 44, 4, 603),
    (QQ, 2, 0, 0, 45, 1, 604),
    (Zmod(5), 1, 0, 6, 44, 4, 603),
    (Zmod(5), 5, 1, 2, 44, 4, 604),
], ids=["Q-1-0-6", "Q-2-0-0", "Z/5-1-0-6", "Z/5-5-1-2"])
def test_completed_perturbed_gl3_is_free(ring, a, b, m, gens, normal, pivots):
    # Jacobi fails, so the PBW system is no Groebner basis and the
    # certificate fails on it; its completion passes the certificate
    G = pbw_generators(helpers.perturbed_gl(3, ring, a, b, m))
    _, pivot_words, non_normal, _ = _freeness_certificate(G, 3)
    assert (len(pivot_words), len(non_normal)) == (pivots, 600)
    C = complete(G, 3)
    n_columns, pivot_words, non_normal, non_units = _freeness_certificate(C, 3)
    assert (len(C.gens), n_columns, n_columns - len(non_normal)) == (gens, 820, normal)
    assert pivot_words == non_normal
    assert non_units == []


@pytest.mark.parametrize("ring", [ZZ, QQ, Zmod(4)], ids=str)
def test_freeness_certificate_fails_for_a_commutative_non_basis(ring):
    algebra = Algebra(ring, ["x", "y", "z"], COMMUTATIVE)
    G = GenSet([parse_poly(algebra, "x y - 1"), parse_poly(algebra, "x z - 1")], algebra)
    assert not check_groebner(G).is_groebner
    for bound, counts in ((3, (28, 27)), (4, (105, 102))):
        _, pivot_words, non_normal, _ = _freeness_certificate(G, bound)
        assert (len(pivot_words), len(non_normal)) == counts


def test_complete_adjoins_members_of_the_ideal():
    # each adjoined generator is a member of the truncation of the ones
    # before it; the input's own truncation at max_degree would not do,
    # as witnesses nest across rounds and can need a higher bound there
    adjoined = 0
    for oracle in (FREE, COMMUTATIVE):
        for G, result in _completed_draws(oracle)[0]:
            algebra = G.algebra
            for k in range(len(G.gens), len(result.gens)):
                T = build_truncation(GenSet(result.gens[:k], algebra), 5)
                assert is_member(result.gens[k], T).member, (G, k)
                adjoined += 1
    assert adjoined == 61
