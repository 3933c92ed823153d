import random
from itertools import product

import pytest
from hypothesis import given, strategies as st

from ugb import EMPTY, Alphabet, Overlap, factorizations, overlaps
from ugb.words import FactorIndex, _deglex

words = st.lists(st.integers(0, 2), max_size=6).map(tuple)
nonempty_words = st.lists(st.integers(0, 2), min_size=1, max_size=5).map(tuple)


def test_alphabet_validation():
    a = Alphabet(["x", "y"])
    assert a.size == 2
    assert a.index("y") == 1
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
        all_words = [()]
        for length in range(1, 5):
            all_words.extend(product(range(n), repeat=length))
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


def test_factorizations_examples():
    x, y = 0, 1
    assert factorizations((x,), (x, y, x)) == [((), (y, x)), ((x, y), ())]
    assert factorizations((x, y), (y, x)) == []
    # sliding-window oracle: xx occurs in xxx at offsets 0 and 1
    assert factorizations((x, x), (x, x, x)) == [((), (x,)), ((x,), ())]
    assert factorizations(EMPTY, (x, y)) == [((), (x, y)), ((x,), (y,)), ((x, y), ())]


@given(words, words)
def test_factorization_count_matches_brute_force(needle, haystack):
    count = sum(
        1
        for i in range(len(haystack) - len(needle) + 1)
        if haystack[i:i + len(needle)] == needle
    )
    outs = factorizations(needle, haystack)
    assert len(outs) == count
    assert (FactorIndex([needle]).first(haystack) is not None) == (count > 0)
    for u, v in outs:
        assert u + needle + v == haystack


@given(st.lists(words, max_size=6), st.lists(st.integers(0, 2), max_size=12).map(tuple))
def test_factor_index_first_is_head_of_matches(leads, word):
    index = FactorIndex(leads)
    assert index.first(word) == (index.matches(word) or [None])[0]


def test_overlap_examples():
    x, y = 0, 1
    got = overlaps((x, y), (y, x))
    assert got == [
        Overlap((), (x,), (x,), (), (x, y, x)),
        Overlap((y,), (), (), (y,), (y, x, y)),
    ]
    assert overlaps((x, x), (x, x)) == [Overlap((), (x,), (x,), (), (x, x, x))]
    assert overlaps((x, y, x), (y,)) == [Overlap((), (), (x,), (x,), (x, y, x))]


def test_overlaps_with_empty_word():
    # the empty word is included in the other word at every cut
    x, y = 0, 1
    assert overlaps((), (x, y)) == [
        Overlap((), (x, y), (), (), (x, y)),
        Overlap((x,), (y,), (), (), (x, y)),
        Overlap((x, y), (), (), (), (x, y)),
    ]
    assert overlaps((x,), ()) == [
        Overlap((), (), (), (x,), (x,)),
        Overlap((), (), (x,), (), (x,)),
    ]
    assert overlaps((), ()) == []


@given(nonempty_words, nonempty_words)
def test_overlaps_are_verbatim_placements(w, w2):
    seen = set()
    for o in overlaps(w, w2):
        assert o.u + w + o.v == o.ambiguity
        assert o.u2 + w2 + o.v2 == o.ambiguity
        placement = (o.u, o.v, o.u2, o.v2, o.ambiguity)
        assert placement not in seen
        seen.add(placement)
        proper = bool(o.u or o.v) and bool(o.u2 or o.v2)
        inclusion = (not o.u and not o.v) or (not o.u2 and not o.v2)
        assert proper != inclusion


@given(nonempty_words, nonempty_words)
def test_overlaps_exclude_disjoint_and_trivial(w, w2):
    for o in overlaps(w, w2):
        # the two copies must touch: their index ranges intersect
        start1 = len(o.u)
        end1 = start1 + len(w)
        start2 = len(o.u2)
        end2 = start2 + len(w2)
        assert start1 < end2 and start2 < end1
        if w == w2:
            assert (o.u, o.v) != (o.u2, o.v2)
