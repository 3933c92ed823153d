"""Each oracle's ``critical_pairs``, built on a set's leading words,
against the per-pair family it replaced.

The reference below is the old enumeration, kept only here: ``overlaps``
of two words in both directions, the collision of two generators with
equal leading words inserted first, the least-common-multiple pairing of
the commutative oracle through a two-word ``CommutativeMerge``, and the
``i <= j`` double loop.  Its placements are (u, v, u2, v2, ambiguity)
tuples, and its pairs were listed by a stable sort on (ambiguity, i, j),
so emission order broke ties; ``_pair_order`` is a total order, and it
must reproduce that list exactly.
"""

import random
from collections import Counter

from hypothesis import given, settings, strategies as st

import helpers
from ugb import COMMUTATIVE, EMPTY, FREE
from ugb.spolys import SPoly, _pair_order
from ugb.words import CommutativeMerge, FreeConcat, _deglex


def _factorizations(needle, haystack):
    n = len(needle)
    return [
        (haystack[:i], haystack[i + n:])
        for i in range(len(haystack) - n + 1)
        if haystack[i:i + n] == needle
    ]


def reference_overlaps(w, w2):
    """Proper overlaps and inclusions of two words, both directions; for
    w == w2 only one of each mirrored placement pair, and no trivial one."""
    same = w == w2
    out = []
    for t in range(1, min(len(w), len(w2))):
        if w[len(w) - t:] == w2[:t]:
            out.append((EMPTY, w2[t:], w[:len(w) - t], EMPTY, w + w2[t:]))
    if same:
        return out
    for t in range(1, min(len(w), len(w2))):
        if w2[len(w2) - t:] == w[:t]:
            out.append((w2[:len(w2) - t], EMPTY, EMPTY, w[t:], w2 + w[t:]))
    for u2, v2 in _factorizations(w2, w):
        out.append((EMPTY, EMPTY, u2, v2, w))
    for u, v in _factorizations(w, w2):
        out.append((u, v, EMPTY, EMPTY, w2))
    return out


def reference_free(w, w2, same_gen):
    out = reference_overlaps(w, w2)
    if w == w2 and not same_gen:
        out.insert(0, (EMPTY, EMPTY, EMPTY, EMPTY, w))
    return out


def reference_commutative(w, w2, same_gen):
    if same_gen:
        return []
    ambiguity = bytes(sorted((Counter(w) | Counter(w2)).elements()))
    (_, u, v), (_, u2, v2) = CommutativeMerge((w, w2)).matches(ambiguity)
    return [(u, v, u2, v2, ambiguity)]


REFERENCE = {FREE: reference_free, COMMUTATIVE: reference_commutative}


def reference_pairs(oracle, lead_words, first_new):
    """The old listing: every i <= j with j >= first_new, stably sorted
    by (ambiguity, i, j), as (i, j, u, v, u2, v2) tuples."""
    per_pair = REFERENCE[oracle]
    out = [
        (i, j, *placement)
        for j in range(first_new, len(lead_words))
        for i in range(j + 1)
        for placement in per_pair(lead_words[i], lead_words[j], i == j)
    ]
    out.sort(key=lambda p: (_deglex(p[6]), p[0], p[1]))
    return [p[:6] for p in out]


def _ordered(oracle, lead_words, pairs):
    keys = [_pair_order(SPoly(i, j, u, u2, helpers.word_product(oracle, u, lead_words[i], v), None))
            for i, j, u, v, u2, v2 in pairs]
    assert len(set(keys)) == len(keys), "pair order has ties"
    return [p for _, p in sorted(zip(keys, pairs), key=lambda kp: kp[0])]


def assert_matches_reference(oracle, lead_words):
    if oracle is COMMUTATIVE:
        lead_words = [bytes(sorted(w)) for w in lead_words]
    lead_words = tuple(lead_words)
    for first_new in range(len(lead_words) + 1):
        got = _ordered(oracle, lead_words, type(oracle)(lead_words).critical_pairs(first_new))
        assert got == reference_pairs(oracle, lead_words, first_new), (lead_words, first_new)


words = st.lists(st.integers(0, 2), max_size=5).map(bytes)


@settings(max_examples=300)
@given(st.lists(words, max_size=6))
def test_free_pairs_match_reference(lead_words):
    assert_matches_reference(FREE, lead_words)


@settings(max_examples=100)
@given(st.lists(words, max_size=6))
def test_commutative_pairs_match_reference(lead_words):
    assert_matches_reference(COMMUTATIVE, lead_words)


def test_pairs_match_reference_on_repeated_and_nested_words():
    # small alphabets and a shared pool make equal, nested and empty
    # leading words common
    rng = random.Random(12)
    for _ in range(400):
        letters = rng.randint(1, 3)
        pool = [bytes(rng.randrange(letters) for _ in range(rng.randint(0, 5)))
                for _ in range(rng.randint(1, 4))]
        lead_words = [rng.choice(pool) for _ in range(rng.randint(1, 6))]
        for oracle in (FREE, COMMUTATIVE):
            assert_matches_reference(oracle, lead_words)


def test_listing_visits_only_new_lead_words(monkeypatch):
    # a later completion round pays for no old-old placement: with k new
    # lead words ``matches`` runs at most k times, and with none not at all
    calls = []
    matches = FreeConcat.matches
    monkeypatch.setattr(FreeConcat, "matches", lambda self, word: calls.append(word) or matches(self, word))
    rng = random.Random(33)
    for _ in range(200):
        lead_words = tuple(bytes(rng.randrange(2) for _ in range(rng.randint(0, 4)))
                           for _ in range(rng.randint(1, 8)))
        index = FreeConcat(lead_words)
        for first_new in range(len(lead_words) + 1):
            calls.clear()
            pairs = index.critical_pairs(first_new)
            assert len(calls) <= len(lead_words) - first_new
            assert all(j >= first_new for _, j, *_ in pairs)
        # the last first_new is len(lead_words): no new word, no work
        assert pairs == [] and calls == []
