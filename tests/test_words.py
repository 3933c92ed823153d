import random
from collections import Counter
from itertools import combinations_with_replacement, product

import pytest
from hypothesis import example, given, strategies as st

import helpers
import ugb.words
from ugb import COMMUTATIVE, EMPTY, FREE, ZZ, Algebra, Alphabet, GenSet, parse_poly
from ugb.spolys import SPoly, _pair_order
from ugb.words import CommutativeMerge, FreeConcat, _deglex, _normal_levels

words = st.lists(st.integers(0, 2), max_size=6).map(bytes)
nonempty_words = st.lists(st.integers(0, 2), min_size=1, max_size=5).map(bytes)
binary_leads = st.lists(st.integers(0, 1), max_size=4).map(bytes)
sorted_leads = st.lists(st.integers(0, 2), max_size=4).map(lambda w: bytes(sorted(w)))


@st.composite
def lead_sets(draw, lead_words):
    """Lead words of lengths 0-4, some drawn twice so that repeats occur."""
    leads = draw(st.lists(lead_words, max_size=5))
    if leads:
        leads += draw(st.lists(st.sampled_from(leads), max_size=2))
    return draw(st.permutations(leads))


def test_alphabet_validation():
    a = Alphabet(["x", "y"])
    assert a.size == 2
    assert a.letters == (b"\x00", b"\x01")
    assert a.index["y"] == 1
    assert a.word_text(()) == "1"
    assert a.word_text((0, 1, 0)) == "x y x"
    with pytest.raises(ValueError):
        Alphabet([])
    with pytest.raises(ValueError):
        Alphabet(["x", "x"])
    with pytest.raises(ValueError):
        Alphabet(["1"])
    with pytest.raises(ValueError):
        Alphabet(["a b"])


def test_alphabet_holds_at_most_256_symbols():
    # one byte per letter: index 255 is the last a word can hold
    names = [f"x{i}" for i in range(257)]
    A = Algebra(ZZ, names[:256])
    assert A.monomial((0, 255)).lm() == b"\x00\xff"
    assert A.alphabet.word_text(b"\xff") == "x255"
    with pytest.raises(ValueError, match="^an alphabet holds at most 256 symbols$"):
        Alphabet(names)


def test_compare_examples():
    x, y = (0,), (1,)
    assert _deglex(EMPTY) < _deglex(x)
    assert _deglex((0, 1)) < _deglex((1, 0))
    assert _deglex((0, 0, 1)) > _deglex((0, 1))
    assert _deglex(x) == _deglex(x)


@given(words, words, words, words)
def test_order_axiom_context_compatibility(b, b2, r, s):
    # axiom (a): b < b' implies r b s < r b' s
    if _deglex(b) < _deglex(b2):
        assert _deglex(r + b + s) < _deglex(r + b2 + s)


@given(words, words, words)
def test_order_axiom_proper_products_grow(b, r, s):
    # axiom (b): nontrivial contexts strictly enlarge
    if r or s:
        assert _deglex(b) < _deglex(r + b + s)


def test_order_is_total_and_ranked():
    # all words of length <= 4 over <= 3 letters sort strictly, so any
    # descending chain from length L is bounded by the rank
    for n in 2, 3:
        all_words = [EMPTY]
        for length in range(1, 5):
            all_words.extend(map(bytes, product(range(n), repeat=length)))
        keys = sorted(_deglex(w) for w in all_words)
        assert len(set(keys)) == len(all_words)
        rng = random.Random(0)
        for _ in range(20):
            w = all_words[rng.randrange(len(all_words))]
            chain = 0
            while True:
                smaller = [u for u in all_words if _deglex(u) < _deglex(w)]
                if not smaller:
                    break
                w = rng.choice(smaller)
                chain += 1
            assert chain <= len(all_words)


def _public_methods(cls):
    return {name for name, value in vars(cls).items() if callable(value) and not name.startswith("_")}


def test_both_oracles_hold_one_protocol():
    assert FREE.name == "free" and COMMUTATIVE.name == "commutative"
    protocol = {
        "context", "is_basis_word", "contexts",
        "first", "matches", "extensions", "state", "critical_pairs",
    }
    assert _public_methods(FreeConcat) == _public_methods(CommutativeMerge) == protocol
    # the module docstring is the one place that describes the protocol
    assert [name for name in sorted(protocol) if f"``{name}(" not in ugb.words.__doc__] == []


@pytest.mark.parametrize("oracle", [FREE, COMMUTATIVE])
def test_singleton_oracles_index_no_lead_words(oracle):
    # the free and the polynomial algebra: the quotient by the empty set
    letters = (b"\x00", b"\x01", b"\x02")
    words = (EMPTY, b"\x00", b"\x00\x01", b"\x01\x01\x02")
    for word in words:
        assert oracle.is_basis_word(word)
        assert oracle.first(word) is None
        assert oracle.matches(word) == []
    # every basis word one letter longer, by word and then letter
    assert oracle.extensions(words, letters) == [
        w + a for w in words for a in letters if oracle.is_basis_word(w + a)]
    assert oracle.critical_pairs(0) == []


@pytest.mark.parametrize("oracle", [FREE, COMMUTATIVE], ids=["free", "commutative"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_normal_levels_of_an_oracle_are_its_basis_words(oracle, n):
    letters = Alphabet("xyz"[:n]).letters
    assert _normal_levels(oracle, letters, 5) == [helpers.basis_words(oracle, n, d) for d in range(6)]


@pytest.mark.parametrize("oracle", [FREE, COMMUTATIVE])
def test_a_generating_set_indexes_with_its_oracle_class(oracle):
    A = Algebra(ZZ, ["x", "y"], oracle)
    G = GenSet([parse_poly(A, "y y - x"), parse_poly(A, "x y")], A)
    assert type(G.leads) is type(G.algebra.oracle)
    assert G.leads is not oracle
    assert G.leads.first(b"\x00\x01\x01") is not None


@pytest.mark.parametrize("oracle", [FREE, COMMUTATIVE], ids=["free", "commutative"])
@given(data=st.data(), n=st.integers(1, 3), room=st.integers(0, 4))
def test_contexts_give_each_split_product_at_its_first_split(oracle, data, n, room):
    w = data.draw(st.lists(st.integers(0, n - 1), max_size=3).map(bytes))
    if oracle is COMMUTATIVE:
        w = bytes(sorted(w))
    levels = [helpers.basis_words(oracle, n, d) for d in range(room + 1)]
    family = oracle.contexts(levels, room)
    assert all(oracle.is_basis_word(u) and oracle.is_basis_word(v) and len(u + v) <= room
               for u, v in family)
    assert family == sorted(family, key=lambda uv: (len(uv[0] + uv[1]), len(uv[0]), uv))
    splits = [(u, v) for s in range(room + 1) for a in range(s + 1)
              for u in levels[a] for v in levels[s - a]]
    first = {}
    for u, v in splits:
        first.setdefault(oracle.context(u, w, v), (u, v))
    met = {}
    for u, v in family:
        met.setdefault(oracle.context(u, w, v), (u, v))
    # the same products, each at the split where every split meets it first
    assert met == first
    if oracle is COMMUTATIVE:
        assert all(u == EMPTY for u, _ in family)
        assert len(met) == len(family)


def test_factor_index_matches_examples():
    x, y = b"\x00", b"\x01"
    assert FreeConcat([x]).matches(x + y + x) == [(0, EMPTY, y + x), (0, x + y, EMPTY)]
    assert FreeConcat([x + y]).matches(y + x) == []
    # sliding window: x x occurs in x x x at offsets 0 and 1
    assert FreeConcat([x + x]).matches(x + x + x) == [(0, EMPTY, x), (0, x, EMPTY)]
    assert FreeConcat([EMPTY]).matches(x + y) == [
        (0, EMPTY, x + y), (0, x, y), (0, x + y, EMPTY),
    ]


@given(words, words)
def test_factor_index_finds_every_position(needle, haystack):
    positions = [
        i
        for i in range(len(haystack) - len(needle) + 1)
        if haystack[i:i + len(needle)] == needle
    ]
    index = FreeConcat([needle])
    outs = index.matches(haystack)
    assert [len(u) for _, u, _ in outs] == positions
    assert (index.first(haystack) is not None) == bool(positions)
    for gen, u, v in outs:
        assert gen == 0
        assert u + needle + v == haystack


# Up to 6 lead words against words of up to 12 letters, so both scans are
# drawn: the generator scan when there are fewer lead words than letters.
@given(st.lists(words, max_size=6), st.lists(st.integers(0, 2), max_size=12).map(bytes))
@example([b""], b"\0\1")  # the empty lead word, at every cut
@example([b"", b""], b"\0")  # ... on the position side, under two generators
@example([b"\1", b"\0", b"\1"], b"\1\0\1")  # one lead word under two generators
@example([b"\0\0"], b"\0\0\0")  # x x in x x x: overlapping occurrences
@example([b"\0\1\0", b"\1"], b"\0\0\1\0\1")  # one lead word inside another
@example([b"\0\0", b"\1\0", b"\2\0", b"\2\1", b"\1", b""], b"\2\1\0")  # 6 lead words, 3 letters
def test_factor_index_first_is_head_of_matches(leads, word):
    index = FreeConcat(leads)
    # every (gen, left, right) with left + lead + right == word, by
    # generator and then position
    reference = [(i, word[:p], word[p + len(lead):]) for i, lead in enumerate(leads)
                 for p in range(len(word) + 1) if word[p:].startswith(lead)]
    assert index.matches(word) == reference
    assert index.first(word) == (reference or [None])[0]


@given(lead_sets(binary_leads))
def test_free_extensions_are_the_undivided_basis_extensions(leads):
    index = FreeConcat(leads)
    letters = (b"\x00", b"\x01")
    for d in range(6):
        normal = [w for w in map(bytes, product(range(2), repeat=d)) if index.first(w) is None]
        # the suffix probe gives what the full factor test gives
        grown = [w + a for w in normal for a in letters if index.first(w + a) is None]
        assert index.extensions(normal, letters) == grown
        assert grown == [c for c in (w + a for w in normal for a in letters)
                         if not any(lead in c for lead in leads)]


@given(lead_sets(sorted_leads))
def test_commutative_extensions_are_the_undivided_basis_extensions(leads):
    index = CommutativeMerge(leads)
    letters = (b"\x00", b"\x01", b"\x02")

    def divisible(w):
        return any(not Counter(lead) - Counter(w) for lead in leads)

    for d in range(6):
        normal = [w for w in map(bytes, combinations_with_replacement(range(3), d))
                  if index.first(w) is None]
        basis = [w + a for w in normal for a in letters if COMMUTATIVE.is_basis_word(w + a)]
        grown = [c for c in basis if index.first(c) is None]
        assert index.extensions(normal, letters) == grown
        assert grown == [c for c in basis if not divisible(c)]


def pairs(*lead_words):
    """The free oracle's critical pairs of the lead words, in pair order,
    each as (i, j, u, v, u2, v2, ambiguity) with ambiguity = u + w_i + v."""
    out = [(i, j, u, v, u2, v2, u + lead_words[i] + v)
           for i, j, u, v, u2, v2 in FreeConcat(lead_words).critical_pairs(0)]
    return sorted(out, key=lambda p: _pair_order(SPoly(p[0], p[1], p[2], p[4], p[6], None)))


def test_overlap_examples():
    x, y = b"\x00", b"\x01"
    assert pairs(x + y, y + x) == [
        (0, 1, EMPTY, x, x, EMPTY, x + y + x),
        (0, 1, y, EMPTY, EMPTY, y, y + x + y),
    ]
    # a word overlaps itself one way only
    assert pairs(x + x) == [(0, 0, EMPTY, x, x, EMPTY, x + x + x)]
    assert pairs(x + y + x, y) == [
        (0, 1, EMPTY, EMPTY, x, x, x + y + x),
        (0, 0, EMPTY, y + x, x + y, EMPTY, x + y + x + y + x),
    ]
    # x x lies in x x x twice, and the two overlap both ways at x x x x,
    # where the left context of the lower generator breaks the tie
    xx, xxx, xxxx = x + x, x + x + x, x + x + x + x
    assert pairs(xx, xxx) == [
        (0, 0, EMPTY, x, x, EMPTY, xxx),
        (0, 1, EMPTY, x, EMPTY, EMPTY, xxx),
        (0, 1, x, EMPTY, EMPTY, EMPTY, xxx),
        (0, 1, EMPTY, xx, x, EMPTY, xxxx),
        (0, 1, xx, EMPTY, EMPTY, x, xxxx),
        (1, 1, EMPTY, x, x, EMPTY, xxxx),
        (1, 1, EMPTY, xx, xx, EMPTY, xxxx + x),
    ]
    # two generators with one lead word meet once at it, and overlap one way
    assert pairs(x + x, x + x) == [
        (0, 1, EMPTY, EMPTY, EMPTY, EMPTY, x + x),
        (0, 0, EMPTY, x, x, EMPTY, x + x + x),
        (0, 1, EMPTY, x, x, EMPTY, x + x + x),
        (1, 1, EMPTY, x, x, EMPTY, x + x + x),
    ]


def test_overlaps_with_empty_word():
    # the empty word is included in the other word at every cut
    x, y = b"\x00", b"\x01"
    assert pairs(EMPTY, x + y) == [
        (0, 1, EMPTY, x + y, EMPTY, EMPTY, x + y),
        (0, 1, x, y, EMPTY, EMPTY, x + y),
        (0, 1, x + y, EMPTY, EMPTY, EMPTY, x + y),
    ]
    assert pairs(x, EMPTY) == [
        (0, 1, EMPTY, EMPTY, EMPTY, x, x),
        (0, 1, EMPTY, EMPTY, x, EMPTY, x),
    ]
    assert pairs(EMPTY) == []
    assert pairs(EMPTY, EMPTY) == [(0, 1, EMPTY, EMPTY, EMPTY, EMPTY, EMPTY)]


@given(nonempty_words, nonempty_words)
def test_overlaps_are_verbatim_placements(w, w2):
    leads = (w, w2)
    seen = set()
    for placement in pairs(w, w2):
        i, j, u, v, u2, v2, ambiguity = placement
        assert i <= j
        assert u2 + leads[j] + v2 == ambiguity
        assert placement not in seen
        seen.add(placement)
        proper = bool(u or v) and bool(u2 or v2)
        inclusion = (not u and not v) or (not u2 and not v2)
        assert proper != inclusion


@given(nonempty_words, nonempty_words)
def test_overlaps_exclude_disjoint_and_trivial(w, w2):
    leads = (w, w2)
    for i, j, u, v, u2, v2, _ in pairs(w, w2):
        # the two copies must touch: their index ranges intersect
        start1 = len(u)
        end1 = start1 + len(leads[i])
        start2 = len(u2)
        end2 = start2 + len(leads[j])
        assert start1 < end2 and start2 < end1
        if i == j:
            assert (u, v) != (u2, v2)
