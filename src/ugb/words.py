"""Words over an indexed alphabet, the graded-lex order, lead-word indexes.

A word is a ``bytes`` object, one letter index per byte, so an
alphabet holds at most 256 symbols; the empty word ``b""`` is the
monomial 1.  Iterating a word yields its letter indices as ints.  The
monomial order is fixed: graded lex, length first and then letters left
to right.  As ``bytes``, words hash, slice, concatenate and compare in
C: ``bytes`` comparison is the lex part of the order, ``len`` the graded
part, and ``_deglex`` the two as one sort key.  A lead-word index, one
class per oracle, holds one set's leading words and answers every
divisibility question about them, the critical pairs included.
"""

from __future__ import annotations

import re
from collections import Counter

EMPTY = b""

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_']*\Z")


class Alphabet:
    """Ordered generator names and ``letters``, their one-letter words."""

    __slots__ = ("names", "letters", "_index")

    def __init__(self, names):
        names = tuple(names)
        if not names:
            raise ValueError("alphabet needs at least one symbol")
        for name in names:
            if not _NAME_RE.match(name):
                raise ValueError(
                    f"bad symbol name {name!r}: use letters, digits, _ or ', "
                    "starting with a letter or _"
                )
        if len(set(names)) != len(names):
            raise ValueError("duplicate symbol names")
        if len(names) > 256:
            raise ValueError("an alphabet holds at most 256 symbols")
        self.names = names
        self.letters = tuple(bytes((a,)) for a in range(len(names)))
        self._index = {s: i for i, s in enumerate(names)}

    @property
    def size(self):
        return len(self.names)

    def index(self, name):
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"unknown symbol {name!r}") from None

    def __contains__(self, name):
        return name in self._index

    def word_text(self, word):
        """Space-separated symbol names; the empty word prints as "1"."""
        if not word:
            return "1"
        return " ".join([self.names[i] for i in word])

    def __eq__(self, other):
        return isinstance(other, Alphabet) and other.names == self.names

    def __hash__(self):
        return hash(self.names)

    def __repr__(self):
        return f"Alphabet({list(self.names)})"


def _deglex(word):
    """Graded lexicographic sort key, the engine's one monomial order:
    length first, then letter indices left to right."""
    return (len(word), word)


class FactorIndex:
    """Leading words found as contiguous factors: one hash table per length.

    ``matches`` lists the placements ``(gen, left, right)`` with
    ``left + lead_words[gen] + right == word`` by lowest generator index,
    then leftmost position; ``first`` is the head of that list, or None.
    Division asks ``first``, and ``critical_pairs`` finds its inclusions
    with ``matches``.  ``divides_extension`` probes only suffixes, the new
    factors of a word one letter past a normal word: one probe per
    lead-word length.
    """

    __slots__ = ("lead_words", "_tables")

    def __init__(self, lead_words):
        self.lead_words = lead_words
        tables = {}
        for i, w in enumerate(lead_words):
            tables.setdefault(len(w), {}).setdefault(w, []).append(i)
        self._tables = tuple(tables.items())

    def first(self, word):
        best = None
        for n, table in self._tables:
            for p in range(len(word) - n + 1):
                hit = table.get(word[p:p + n])
                if hit is not None and (best is None or (hit[0], p, n) < best):
                    best = (hit[0], p, n)
        if best is None:
            return None
        i, p, n = best
        return i, word[:p], word[p + n:]

    def divides_extension(self, word):
        """True iff some lead word divides ``word``, given that
        ``word[:-1]`` is normal; for the empty word the test is exact."""
        m = len(word)
        for n, table in self._tables:
            if n <= m and word[m - n:] in table:
                return True
        return False

    def matches(self, word):
        hits = []
        for n, table in self._tables:
            for p in range(len(word) - n + 1):
                for i in table.get(word[p:p + n], ()):
                    hits.append((i, p, n))
        hits.sort()
        return [(i, word[:p], word[p + n:]) for i, p, n in hits]

    def critical_pairs(self, first_new):
        """(i, j, u, v, u2, v2) for i <= j, j >= first_new, placing both
        lead words on one ambiguity word u * w_i * v == u2 * w_j * v2: the
        diamond-lemma family of proper overlaps (a suffix table probed with
        prefixes) and inclusions (``matches``).  Equal lead words meet
        once, at the word itself, and overlap one way only; no generator
        includes itself, and an empty lead word is included at every cut.
        Disjoint placements always reduce to zero for unital pairs and are
        not enumerated."""
        lead_words = self.lead_words
        ends_in = {}
        for a, w in enumerate(lead_words):
            for t in range(1, len(w)):
                ends_in.setdefault(w[len(w) - t:], []).append(a)
        # each placement once, as (a, u, v, b, u2, v2) with u w_a v == u2 w_b v2
        found = []
        for b, w in enumerate(lead_words):
            # a suffix of lead_words[a] is the prefix w[:t]
            for t in range(1, len(w)):
                for a in ends_in.get(w[:t], ()):
                    wa = lead_words[a]
                    if a <= b or wa != w:
                        found.append((a, EMPTY, w[t:], b, wa[:len(wa) - t], EMPTY))
            # lead_words[a] is a factor of w; an equal word is met only from below
            for a, u, v in self.matches(w):
                if a < b or len(lead_words[a]) < len(w):
                    found.append((a, u, v, b, EMPTY, EMPTY))
        return [(a, b, u, v, u2, v2) if a <= b else (b, a, u2, v2, u, v)
                for a, u, v, b, u2, v2 in found if max(a, b) >= first_new]


class MultisetIndex:
    """Leading words found by multiset inclusion in sorted words, under
    the :class:`FactorIndex` contract.  A generator divides a word in at
    most one way; the cofactor is the sorted difference, placed as
    ``left`` with ``right`` empty.
    """

    __slots__ = ("_counts",)

    def __init__(self, lead_words):
        self._counts = tuple(Counter(w) for w in lead_words)

    def _divisions(self, word):
        have = Counter(word)
        for i, need in enumerate(self._counts):
            if need <= have:
                yield i, bytes(sorted((have - need).elements())), EMPTY

    def first(self, word):
        return next(self._divisions(word), None)

    def divides_extension(self, word):
        """The full test: a new letter can complete a lead anywhere."""
        return self.first(word) is not None

    def matches(self, word):
        return list(self._divisions(word))

    def critical_pairs(self, first_new):
        """(i, j, u, EMPTY, u2, EMPTY) for i < j, j >= first_new: one
        placement per pair of distinct generators, at the least common
        multiple of the leading words (the letterwise max); both divide it,
        and their cofactors are the two left contexts."""
        counts = self._counts
        out = []
        for j in range(first_new, len(counts)):
            for i in range(j):
                lcm = counts[i] | counts[j]
                u, u2 = (bytes(sorted(c.elements())) for c in (lcm - counts[i], lcm - counts[j]))
                out.append((i, j, u, EMPTY, u2, EMPTY))
        return out
