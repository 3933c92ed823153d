"""Words over an indexed alphabet, the graded-lex order and factor search.

A word is a ``bytes`` object, one letter index per byte, so an
alphabet holds at most 256 symbols; the empty word ``b""`` is the
monomial 1.  Iterating a word yields its letter indices as ints.  The
monomial order is fixed: graded lex, length first and then letters left
to right.  As ``bytes``, words hash, slice, concatenate and compare in
C: ``bytes`` comparison is the lex part of the order, ``len`` the graded
part, and ``_deglex`` the two as one sort key.
"""

from __future__ import annotations

import re

EMPTY = b""

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_']*\Z")


class Alphabet:
    """Ordered generator names; index order is the generator order."""

    __slots__ = ("names", "_index")

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
    The free oracle finds divisors and inclusion pairs with it.
    ``divides_extension`` probes only suffixes, the new factors of a word
    one letter past a normal word: one probe per lead-word length.
    """

    __slots__ = ("_tables",)

    def __init__(self, lead_words):
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
