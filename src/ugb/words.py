"""Words over an indexed alphabet, the graded-lex order and the two
multiplication oracles.

A word is a ``bytes`` object, one letter index per byte, so an
alphabet holds at most 256 symbols; the empty word ``b""`` is the
monomial 1.  Iterating a word yields its letter indices as ints.  The
monomial order is fixed: graded lex, length first and then letters left
to right.  As ``bytes``, words hash, slice, concatenate and compare in
C: ``bytes`` comparison is the lex part of the order, ``len`` the graded
part, and ``_deglex`` the two as one sort key.

An oracle is an admissible system: a basis of words, a product of basis
words and the order above.  Each oracle is one class with one protocol:

- ``name``, as the problem file's ``oracle`` line spells it;
- ``context(u, w, v)``, the word product: one monic basis word, never
  zero and never a sum, so context scaling keeps the term order and the
  leading coefficient of ``u * g * v`` is that of ``g``, which makes
  divisibility a test on leading words alone;
- ``is_basis_word(w)``, the basis test for a word from outside;
- ``contexts(levels, room)``: from ``levels[d]``, the basis words of
  degree d, the (left, right) pairs of degree at most ``room`` that give
  each split's product at its first split, by degree, left degree, words;
- built on leading words, ``cls(lead_words)``, an index that answers
  every divisibility question about them.  ``first(word)`` is the
  placement ``(gen, left, right)`` with ``context(left, lead_words[gen],
  right) == word`` that division takes, or None; ``matches(word)`` lists
  every placement, by lowest generator, then leftmost; the free index
  finds both by one of two scans, with one answer (see ``FreeConcat``);
  ``extensions(words, letters)``, the one growth rule: the normal basis
  words one letter past normal words, each ``w + a`` for a word w of
  ``words``, by word and then letter, so a level grows ascending;
  ``state(word)``, a normal word's state in the Ufnarovski graph
  (Ufnarovski 1982): the state's ``extensions`` match the word's letter
  for letter, and each has the state of the word's extension by the
  same letter;
  ``critical_pairs(first_new)`` lists the diamond-lemma pair family
  (Bergman 1978) that the Buchberger check reduces.

``FREE`` and ``COMMUTATIVE`` index no leading words, so their
``extensions`` are all basis extensions: the free and the polynomial
algebra, each the quotient by the empty set.  A generating set builds
its own index as ``type(algebra.oracle)(lead_words)``.
"""

from __future__ import annotations

import re
from collections import Counter

EMPTY = b""

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_']*\Z")


class Alphabet:
    """Ordered generator names, ``letters``, their one-letter words, and
    ``index``, the symbol table: a dict from each name to its letter index."""

    __slots__ = ("names", "letters", "index")

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
        self.index = {s: i for i, s in enumerate(names)}

    @property
    def size(self):
        return len(self.names)

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


class FreeConcat:
    """Basis: all words; the context product is concatenation.  A lead
    word divides a word as a contiguous factor.  ``first`` and ``matches``
    give one answer, lowest generator and then leftmost, by one of two
    scans: with fewer lead words (``_count``) than the word has letters,
    the generator scan, ``bytes.find`` of each lead word in generator
    order; otherwise the position scan, one probe per position into a
    hash table per lead-word length.  ``find`` runs in C, so the
    generator scan costs per lead word what the position scan costs per
    letter: on division's sl2, Heisenberg and gl2 words (3-15 letters) it
    took a third to three quarters of the time.  With more lead words
    than letters it loses in ``matches`` and on normal words, which every
    scan reads to the end ("fewer than twice the letters" lost there by
    up to 2x), so the Buchberger check's words on gl3 and gl4 (2 or 3
    letters, 36 or 120 lead words) keep the position scan.

    ``extensions`` probes only suffixes, the new factors of a word one
    letter past a normal word: one filter of the level per lead-word
    length.
    """

    __slots__ = ("lead_words", "_count", "_tables", "_reach")

    name = "free"

    def __init__(self, lead_words=()):
        self.lead_words = lead_words
        self._count = len(lead_words)
        tables = {}
        for i, w in enumerate(lead_words):
            tables.setdefault(len(w), {}).setdefault(w, []).append(i)
        self._tables = tuple(tables.items())
        self._reach = max(max(tables, default=0) - 1, 0)

    def context(self, u, w, v):
        return u + w + v

    def is_basis_word(self, w):
        return True

    def contexts(self, levels, room):
        """Every split: u of degree a and v of degree s - a."""
        return [(u, v) for s in range(room + 1) for a in range(s + 1)
                for u in levels[a] for v in levels[s - a]]

    def first(self, word):
        if self._count < len(word):
            for i, lead in enumerate(self.lead_words):
                p = word.find(lead)
                if p >= 0:
                    return i, word[:p], word[p + len(lead):]
            return None
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

    def extensions(self, words, letters):
        """Each ``w + a``, w in ``words`` and a in ``letters``, that no
        lead word ends: past a normal word, a new factor is a suffix, and
        ``c[-n:]`` is the one of length n (a shorter c has none).  The
        words are normal, so under the empty lead word there are none."""
        grown = [w + a for w in words for a in letters]
        for n, table in self._tables:
            grown = [c for c in grown if c[-n:] not in table]
        return grown

    def state(self, word):
        """The last m - 1 letters, m the longest lead word: all that a
        suffix probe of one more letter reads."""
        return word[-self._reach:] if self._reach else EMPTY

    def matches(self, word):
        if self._count < len(word):
            out = []
            for i, lead in enumerate(self.lead_words):
                p = word.find(lead)
                while p >= 0:
                    out.append((i, word[:p], word[p + len(lead):]))
                    p = word.find(lead, p + 1)
            return out
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
        diamond-lemma family of proper overlaps and inclusions.  Equal lead
        words meet once, at the word itself, and overlap one way only; no
        generator includes itself, and an empty lead word is included at
        every cut.  Disjoint placements always reduce to zero for unital
        pairs and are not enumerated.

        Only the new lead words, from index first_new on, are visited, so a
        later completion round pays for no old-old placement.  A new word's
        prefixes probe a table of every proper suffix and its suffixes a
        table of the old words' proper prefixes; ``matches`` finds the
        words inside a new word, and ``bytes.find`` the new word inside
        longer old ones."""
        lead_words = self.lead_words
        if first_new >= len(lead_words):
            return []
        ends_in = {}
        for a, w in enumerate(lead_words):
            for t in range(1, len(w)):
                ends_in.setdefault(w[len(w) - t:], []).append(a)
        old = lead_words[:first_new]
        starts_in = {}
        for b, w in enumerate(old):
            for t in range(1, len(w)):
                starts_in.setdefault(w[:t], []).append(b)
        # each placement once, as (a, u, v, b, u2, v2) with u w_a v == u2 w_b v2
        found = []
        for c in range(first_new, len(lead_words)):
            w = lead_words[c]
            n = len(w)
            for t in range(1, n):
                # a suffix of lead_words[a] is the prefix w[:t]
                for a in ends_in.get(w[:t], ()):
                    wa = lead_words[a]
                    if a <= c or wa != w:
                        found.append((a, EMPTY, w[t:], c, wa[:len(wa) - t], EMPTY))
                # the suffix w[n - t:] is a prefix of the old lead_words[b]
                for b in starts_in.get(w[n - t:], ()):
                    wb = old[b]
                    if wb != w:
                        found.append((c, EMPTY, wb[t:], b, w[:n - t], EMPTY))
            # lead_words[a] is a factor of w; an equal word is met only from below
            for a, u, v in self.matches(w):
                if a < c or len(lead_words[a]) < n:
                    found.append((a, u, v, c, EMPTY, EMPTY))
            # w is a factor of a longer old lead word
            for b, wb in enumerate(old):
                if len(wb) > n:
                    p = wb.find(w)
                    while p >= 0:
                        found.append((c, wb[:p], wb[p + n:], b, EMPTY, EMPTY))
                        p = wb.find(w, p + 1)
        return [(a, b, u, v, u2, v2) if a <= b else (b, a, u2, v2, u, v)
                for a, u, v, b, u2, v2 in found]


class CommutativeMerge:
    """Basis: non-decreasing words; the context product is the sorted
    merge.  A lead word divides a sorted word by multiset inclusion, in at
    most one way; the cofactor is the sorted difference, placed as
    ``left`` with ``right`` empty.
    """

    __slots__ = ("_counts", "_caps")

    name = "commutative"

    def __init__(self, lead_words=()):
        self._counts = tuple(Counter(w) for w in lead_words)
        self._caps = Counter()
        for need in self._counts:
            self._caps |= need

    def context(self, u, w, v):
        return bytes(sorted(u + w + v))

    def is_basis_word(self, w):
        return bytes(sorted(w)) == w

    def contexts(self, levels, room):
        """(1, v) alone: split (u, v) gives the product of (1, sorted(u + v)), met first."""
        return [(EMPTY, v) for s in range(room + 1) for v in levels[s]]

    def _divisions(self, word):
        have = Counter(word)
        for i, need in enumerate(self._counts):
            if need <= have:
                yield i, bytes(sorted((have - need).elements())), EMPTY

    def first(self, word):
        return next(self._divisions(word), None) if self._counts else None

    def extensions(self, words, letters):
        """Each sorted ``w + a``, w in ``words`` and a in ``letters``, that
        no lead word divides: the full test, as a new letter can complete a
        lead anywhere."""
        return [c for w in words for a in (letters[w[-1]:] if w else letters)
                if self.first(c := w + a) is None]

    def state(self, word):
        """Each letter's multiplicity capped at the most any lead word
        needs, keeping one copy of the last letter for ``extensions``."""
        return bytes(sorted((Counter(word) & (self._caps | Counter(word[-1:]))).elements()))

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


FREE = FreeConcat()
COMMUTATIVE = CommutativeMerge()


def _normal_levels(index, letters, max_degree):
    """``levels[d]``, the normal words of degree d up to the bound, each
    level the ``extensions`` of the one below: a divisible word stays so."""
    level = [] if index.first(EMPTY) else [EMPTY]
    levels = [level]
    for _ in range(max_degree):
        level = index.extensions(level, letters)
        levels.append(level)
    return levels
