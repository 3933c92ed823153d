import random
from itertools import product

import pytest
from hypothesis import given, strategies as st

from ugb import DEGLEX, EMPTY, Alphabet, EmptyWord, Overlap, factorizations, overlaps
from ugb.words import FactorIndex

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
    assert DEGLEX.compare(EMPTY, x) == -1
    assert DEGLEX.compare((0, 1), (1, 0)) == -1
    assert DEGLEX.compare((0, 0, 1), (0, 1)) == 1
    assert DEGLEX.compare(x, x) == 0


@given(words, words, words, words)
def test_order_axiom_context_compatibility(b, b2, r, s):
    # axiom (a): b < b' implies r b s < r b' s
    if DEGLEX.compare(b, b2) == -1:
        assert DEGLEX.compare(r + b + s, r + b2 + s) == -1


@given(words, words, words)
def test_order_axiom_proper_products_grow(b, r, s):
    # axiom (b): nontrivial contexts strictly enlarge
    if r or s:
        assert DEGLEX.compare(b, r + b + s) == -1


def test_order_is_total_and_ranked():
    # all words of length <= 4 over <= 3 letters sort strictly, so any
    # descending chain from length L is bounded by the rank
    for n in 2, 3:
        all_words = [()]
        for length in range(1, 5):
            all_words.extend(product(range(n), repeat=length))
        keys = sorted(DEGLEX.key(w) for w in all_words)
        assert len(set(keys)) == len(all_words)
        rng = random.Random(0)
        for _ in range(20):
            w = all_words[rng.randrange(len(all_words))]
            chain = 0
            while True:
                smaller = [u for u in all_words if DEGLEX.compare(u, w) == -1]
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


def test_overlap_examples():
    x, y = 0, 1
    got = overlaps((x, y), (y, x))
    assert got == [
        Overlap((), (x,), (x,), (), (x, y, x)),
        Overlap((y,), (), (), (y,), (y, x, y)),
    ]
    assert overlaps((x, x), (x, x)) == [Overlap((), (x,), (x,), (), (x, x, x))]
    assert overlaps((x, y, x), (y,)) == [Overlap((), (), (x,), (x,), (x, y, x))]


def test_overlaps_reject_empty():
    with pytest.raises(EmptyWord):
        overlaps((), (0,))
    with pytest.raises(EmptyWord):
        overlaps((0,), ())


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
