import json
import random

import pytest
from hypothesis import example, given, settings, strategies as st

import helpers
from conftest import FIXTURES
from ugb import (
    COMMUTATIVE,
    FREE,
    QQ,
    ZZ,
    Algebra,
    GenSet,
    LieAlgebra,
    ParseError,
    Zmod,
    divide,
    load_problem,
    parse_poly,
    parse_problem,
    pbw_generators,
)
from ugb.textio import format_record, record_steps


AZ = Algebra(ZZ, ["x", "y"])
_SL2 = pbw_generators(helpers.sl2())


def test_parse_poly_basics():
    assert parse_poly(AZ, "x y - y x - 1") == AZ.poly([(1, (0, 1)), (-1, (1, 0)), (-1, ())])
    assert parse_poly(AZ, "0").is_zero()
    assert parse_poly(AZ, "1") == AZ.one()
    assert parse_poly(AZ, "3*x y + 2*x") == AZ.poly([(3, (0, 1)), (2, (0,))])
    assert parse_poly(AZ, "- 2*x + 5") == AZ.poly([(-2, (0,)), (5, ())])
    assert parse_poly(AZ, "-2*x") == AZ.poly([(-2, (0,))])
    assert parse_poly(AZ, "3*1") == AZ.poly([(3, ())])


def test_parse_poly_rationals_and_residues():
    AQ = Algebra(QQ, ["x"])
    assert parse_poly(AQ, "1/2*x - 2/3") == AQ.poly([("1/2", (0,)), ("-2/3", ())])
    A5 = Algebra(Zmod(5), ["x"])
    assert parse_poly(A5, "7*x - 1") == A5.poly([(2, (0,)), (4, ())])


def test_parse_poly_errors():
    cases = [
        ("", "empty polynomial text"),
        ("x +", "dangling sign"),
        ("x + + y", "two signs in a row"),
        ("w", "unknown symbol 'w'"),
        ("2 x", "bare coefficient"),
        ("1/2*x", "not an integer"),  # rational coefficient over Z
        ("3*", "missing word after '3*'"),
    ]
    for text, message in cases:
        with pytest.raises(ParseError) as err:
            parse_poly(AZ, text)
        assert message in str(err.value), text


def test_poly_round_trip_random():
    rng = random.Random(61)
    algebras = [
        Algebra(ZZ, ["x", "y"]),
        Algebra(QQ, ["a", "b", "c"]),
        Algebra(Zmod(6), ["x", "y"]),
        Algebra(ZZ, ["u", "v"], COMMUTATIVE),
        Algebra(QQ, ["x1", "x2", "x3"], COMMUTATIVE),
    ]
    for algebra in algebras:
        for _ in range(60):
            p = helpers.random_poly(rng, algebra)
            assert parse_poly(algebra, str(p)) == p


_ROUND_TRIP_ALGEBRAS = [
    Algebra(ZZ, ["x", "y"]),
    Algebra(QQ, ["a", "b", "c"]),
    Algebra(Zmod(6), ["x", "y"]),
    Algebra(ZZ, ["u", "v"], COMMUTATIVE),
    Algebra(QQ, ["x1", "x2", "x3"], COMMUTATIVE),
]


def _blanks(rng, least=0):
    return "".join(rng.choice(" \t") for _ in range(rng.randint(least, 3)))


@settings(max_examples=400)
@given(st.integers(min_value=0))
def test_parse_poly_reads_any_spacing(seed):
    # str(p) with each single space widened to a run of spaces and tabs,
    # dropped next to a sign, and blanks added at either end
    rng = random.Random(seed)
    for algebra in _ROUND_TRIP_ALGEBRAS:
        p = helpers.random_poly(rng, algebra)
        pieces = str(p).split(" ")
        text = _blanks(rng)
        for a, b in zip(pieces, pieces[1:]):
            signed = a in ("+", "-") or b in ("+", "-")
            text += a + _blanks(rng, least=0 if signed else 1)
        text += pieces[-1] + _blanks(rng)
        assert parse_poly(algebra, text) == p, text


_FUZZ_ALGEBRAS = [Algebra(ring, ["x", "y"], oracle) for ring in (ZZ, QQ, Zmod(6)) for oracle in (FREE, COMMUTATIVE)]
_POLY_TEXT = st.text("xyw 0123/*+-\t.", max_size=16) | st.text(max_size=16)


@settings(max_examples=500)
@given(_POLY_TEXT)
def test_parse_poly_raises_only_parse_errors(text):
    for algebra in _FUZZ_ALGEBRAS:
        try:
            parse_poly(algebra, text)
        except ParseError:
            pass


_FIELDS = st.sampled_from(
    ["Z", "Q", "Z/4", "Z/1", "free", "commutative", "x", "y", "e", "1x", "0", "1", "2", "-1", "1/2", "1/0", ":", "*"]
) | st.text("xy 012/:*+-#\t", max_size=6)
_LINES = st.tuples(
    st.sampled_from(["ring", "oracle", "alphabet", "gen", "rank", "basis", "bracket", "#"]),
    st.lists(_FIELDS, max_size=4),
).map(lambda line: " ".join([line[0], *line[1]])) | st.text(max_size=12)


@settings(max_examples=500)
@given(st.lists(_LINES, max_size=8).map("\n".join))
def test_parse_problem_raises_only_parse_errors(text):
    try:
        parse_problem(text)
    except ParseError:
        pass


def test_parse_problem_generators():
    problem = parse_problem(
        """
        ring Z
        oracle free
        alphabet x y
        gen x x - y
        gen 2*y x
        """,
        "demo.gb",
    )
    assert isinstance(problem, GenSet)
    assert problem.algebra.ring == ZZ
    assert problem.algebra.oracle is FREE
    assert len(problem.gens) == 2
    assert str(problem.gens[0]) == "x x - y"


def test_parse_problem_lie_block():
    problem = load_problem(FIXTURES / "sl2.lie")
    assert isinstance(problem, LieAlgebra)
    assert problem == helpers.sl2(ZZ)
    assert problem.alphabet.names == ("e", "f", "h")


def test_parse_problem_heisenberg_mod4():
    problem = load_problem(FIXTURES / "heisenberg_z4.lie")
    assert problem == helpers.heisenberg(Zmod(4))


def test_parse_problem_without_a_block_is_none():
    assert parse_problem("ring Q\noracle commutative\n") is None


def test_parse_problem_diagnostics_carry_line_numbers():
    cases = [
        ("ring Z\nalphabet x\ngen w\n", 3, "unknown symbol"),
        ("ring Z\nalphabet x\ngen 2*w\n", 3, "unknown symbol 'w'"),
        ("ring Z\noracle bogus\n", 2, "unknown oracle"),
        ("ring Z\nalphabet x x\n", 2, "duplicate symbol names"),
        ("rank 2\nbracket 2 1 : 0 0\nring Z\n", 2, "ring must be declared before brackets"),
        ("ring Z\nrank 2\nbracket 2 1 0 0\n", 3, "needs ':'"),
        ("ring Z\nrank 2\nbracket 2 1 : 1 0\nbracket 2 1 : 0 1\n", 4, "duplicate bracket (2, 1)"),
        ("ring Z\nnonsense here\n", 2, "unknown directive"),
        ("ring Z\ngen x\n", 2, "alphabet"),
        ("alphabet x\ngen x\n", 2, "ring"),
        ("ring Z\nring Q\n", 2, "duplicate"),
        ("ring Z\nrank 3\nbracket 1 2 : 0 0 0\n", 3, "indices"),
        ("ring Z\nrank 2\nbracket 2 1 : 1\n", 3, "coefficients"),
        ("ring Z\noracle commutative\nalphabet x y\ngen y x\n", 4, "basis word"),
        ("ring Z\nalphabet x\ngen 0\n", 3, "zero"),
        ("ring Z/1\n", 1, "modulus"),
        ("ring Q\nalphabet x\ngen 1/0*x\n", 3, "zero denominator"),
        ("ring Q\nrank 2\nbracket 2 1 : 0 1/0\n", 3, "zero denominator"),
        ("ring Q\nalphabet x\ngen x + 1/0\n", 3, "zero denominator"),
        ("ring Z\nalphabet x\ngen x - 1/2\n", 3, "not an integer"),
        ("ring Z/4\nalphabet x\ngen 1/2\n", 3, "not a residue"),
        ("ring Z\nalphabet x\ngen 2x\n", 3, "not an integer"),
        ("ring Q\nalphabet x y z\ngen x z\noracle commutative\n", 4, "oracle must be declared before generators"),
        ("ring Q\nalphabet x\ngen x 1/0\n", 3, "zero denominator"),
        ("ring Z\nalphabet x\ngen x 1/2\n", 3, "not an integer"),
        ("ring Z\nalphabet x\ngen x 2\n", 3, "misplaced coefficient '2'"),
        ("ring Z\noracle commutative\nrank 1\n", 2, "oracle must be free"),
        ("ring Z\nrank 2\nbracket 2 1 : 0 0\noracle commutative\n", 4, "oracle must be free"),
        ("ring Z\nrank 3\nbracket 2 1 : 0 0 1\nbasis e f e\n", 4, "duplicate symbol names"),
        ("ring Z\nbasis e f\n\nrank 3\n", 2, "basis has 2 names for rank 3"),
        ("ring Z\nrank 2\nbasis e 1f\n", 3, "bad symbol name '1f'"),
        ("ring Z\n\nbasis e f\n", 3, "lie block needs a rank line"),
        ("ring Z\nrank 2\nbasis e f\nalphabet x\ngen x\n", 4, "cannot share a file"),
        ("ring Z\nalphabet x\ngen x\n\nrank 2\nbracket 2 1 : 0 0\n", 5, "cannot share a file"),
        # str.isdigit accepts superscript digits that int() rejects
        ("ring Z\nrank \u00b2\n", 2, "bad rank"),
        ("ring Z\nrank 2\nbracket \u00b2 1 : 0 0\n", 3, "indices"),
        ("ring Z/\u00b2\n", 1, "bad modulus"),
    ]
    for text, line, needle in cases:
        with pytest.raises(ParseError) as err:
            parse_problem(text, "f.gb")
        assert err.value.line == line, text
        assert needle in str(err.value), text


def test_parse_problem_fields_split_on_any_whitespace():
    # a tab separates a directive from its fields as a space does
    gens = (FIXTURES / "inverse_pair.gb").read_text()
    tabbed, spaced = parse_problem(gens.replace(" ", "\t")), parse_problem(gens)
    assert (tabbed.algebra, tabbed.gens) == (spaced.algebra, spaced.gens)
    lie = (FIXTURES / "sl2.lie").read_text()
    assert parse_problem(lie.replace(" ", "\t")) == parse_problem(lie)


def test_load_problem_skips_a_byte_order_mark(tmp_path):
    path = tmp_path / "bom.gb"
    path.write_text((FIXTURES / "inverse_pair.gb").read_text(), encoding="utf-8-sig")
    with_bom, plain = load_problem(path), load_problem(FIXTURES / "inverse_pair.gb")
    assert (with_bom.algebra, with_bom.gens) == (plain.algebra, plain.gens)


def test_parse_error_prefixes_file_and_line():
    shapes = [ParseError("m", *where) for where in (("f", 3), ("f",), (None, 3), ())]
    assert [str(e) for e in shapes] == ["f:3: m", "f: m", "3: m", "m"]
    assert [(e.filename, e.line) for e in shapes] == [("f", 3), ("f", None), (None, 3), (None, None)]


def test_parse_problem_missing_ring():
    with pytest.raises(ParseError) as err:
        parse_problem("alphabet x\n")
    assert "ring" in str(err.value)


def test_parse_problem_bracket_needs_rank():
    with pytest.raises(ParseError):
        parse_problem("ring Z\nbracket 2 1 : 0\n")


def test_problem_file_round_trip_through_genset():
    # printing generators as gen lines re-parses to the same set
    problem = load_problem(FIXTURES / "inverse_pair.gb")
    text = "ring Q\noracle free\nalphabet x y\n" + "\n".join(
        f"gen {g}" for g in problem.gens
    )
    again = parse_problem(text)
    assert list(again.gens) == list(problem.gens)


# Record values: text with non-ASCII, control, quote and backslash
# characters, ints past 64 bits, bools and None, nested in dicts, lists
# and tuples, any of which may be empty at any depth.
_TEXT = st.text() | st.text(alphabet='"\\/\x00\x1f\x7f\n\t é€\u2028\U0001f600ab')
_SCALARS = _TEXT | st.integers() | st.integers(-(10 ** 40), 10 ** 40) | st.booleans() | st.none()
_RECORDS = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(_TEXT, inner, max_size=4),
    max_leaves=25,
)


@settings(max_examples=400)
@given(_RECORDS)
# plain lists of one type each, which the writer maps in C for str and
# int; bool is an int subclass, but a list of bools prints true and false
@example(["a", "b\u00e9", '"'])
@example([0, -1, 10 ** 30])
@example([True, False, True])
@example([1, True, 0, False])
@example({"jacobi_violations": [[2, 1, 0], [0, 2, 1], [1, 0, 2]]})
def test_format_record_is_json_dumps(value):
    assert format_record(value) == json.dumps(value, indent=2, sort_keys=True)


# Lists and tuples of 1-40 dicts that share one key set, which the writer
# fills from one template column by column.  Keys may hold "%", the
# template's own marker.  A column holds one type, or a mix.
_KEYS = st.lists(_TEXT | st.text("%sd(a)", min_size=1), min_size=1, max_size=4, unique=True)
_NESTED = st.lists(_SCALARS, max_size=3) | st.dictionaries(_TEXT, _SCALARS, max_size=3)
_CELLS = [_TEXT, st.integers(-(10 ** 40), 10 ** 40), st.booleans(), st.none(), _NESTED, _SCALARS | _NESTED]


@st.composite
def _same_keyed(draw):
    keys = draw(_KEYS)
    n = draw(st.integers(1, 40))
    columns = [draw(st.lists(draw(st.sampled_from(_CELLS)), min_size=n, max_size=n)) for _ in keys]
    rows = [dict(zip(keys, row)) for row in zip(*columns)]
    return rows if draw(st.booleans()) else tuple(rows)


@settings(max_examples=100)
@given(_same_keyed() | st.dictionaries(_TEXT, _same_keyed(), min_size=1, max_size=2))
def test_format_record_writes_same_keyed_dicts_as_json_dumps(value):
    assert format_record(value) == json.dumps(value, indent=2, sort_keys=True)


@pytest.mark.parametrize(
    "value",
    [
        1.5, {"a": 0.0}, [1, 2.5], [1, {2, 3}], {"a": frozenset()}, {1: "a"}, {"a": [{2: "c"}]}, {"b": 1, 2: "c"},
        [{"a": 1}, {"a": 2.5}, {"a": 3}], [{1: "a"}, {1: "b"}],
    ],
    ids=[
        "float", "nested-float", "float-in-an-int-list", "set", "frozenset", "int-key", "nested-int-key", "mixed-keys",
        "float-in-an-int-column", "int-key-in-every-row",
    ],
)
def test_format_record_rejects_other_types(value):
    with pytest.raises(TypeError):
        format_record(value)


def test_record_steps_writes_each_context_word():
    # each distinct context word is rendered once and looked up per step
    algebra = _SL2.algebra
    long = divide(parse_poly(algebra, " ".join(["h f e"] * 5)), _SL2).steps
    empty = [(1, b"", 0, b""), (-2, b"\x00\x02", 1, b""), (3, b"", 2, b"\x01")]
    assert len(long) == 3342
    for steps in (long, empty):
        assert record_steps(steps, algebra) == [
            {"coeff": str(c), "left": algebra.alphabet.word_text(left), "gen": g,
             "right": algebra.alphabet.word_text(right)}
            for c, left, g, right in steps
        ]
    contexts = [(step["left"], step["right"]) for step in record_steps(empty, algebra)]
    assert contexts == [("1", "1"), ("e h", "1"), ("1", "f")]
