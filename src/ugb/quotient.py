"""Normal forms, normal words, quotient-module bases and the direct-sum
split.

A word is normal for a generating set when no leading word of the set
divides it, in the sense of divisibility that the multiplication oracle
defines.  For a verified Groebner basis the normal words form a free
module basis of the quotient, and every element splits uniquely into an
ideal part plus a normal part.
"""

from __future__ import annotations

from collections import namedtuple

from .division import divide
from .poly import ensure_same_algebra
from .spolys import require_groebner
from .words import EMPTY


def normal_form(f, G, strict=True):
    """The unique remainder of f modulo a verified Groebner basis.

    With ``strict=False`` the division still runs, but the result is only
    G-normal: reduced with respect to the given set, with no uniqueness
    claim unless the set actually is a Groebner basis.
    """
    if strict:
        require_groebner(G)
    return divide(f, G).remainder


def is_normal(word, G):
    """True iff no leading word of G divides ``word``, a basis word given
    as any iterable of letter indices (checked by ``check_word``)."""
    return G.leads.first(G.algebra.check_word(word)) is None


class QuotientBasis(namedtuple("QuotientBasis", "by_degree")):
    """Normal words of each degree up to a bound: ``by_degree[d]`` lists
    those of degree d, for d from 0 to the bound.  They span a canonical
    quotient basis only when the set is a Groebner basis, which strict
    enumeration checks; otherwise they are only G-normal.
    """

    __slots__ = ()

    def counts(self):
        return tuple(map(len, self.by_degree))

    def total(self):
        return sum(self.counts())


def enumerate_basis(G, max_degree, strict=True):
    """Normal words of every degree up to the bound, by pruned extension.

    Words grow one letter at a time at the right end, by the letters the
    oracle's ``letters_after`` allows, so every candidate is a basis word.
    For both oracles a word divisible by a leading word stays divisible
    when extended, so only normal words are extended, and a candidate
    ``w + letter`` is kept when the index's ``divides_extension`` (see
    :mod:`ugb.words`) finds no leading word dividing it.
    """
    G.require_unital()
    if max_degree < 0:
        raise ValueError("max_degree must be nonnegative")
    if strict:
        require_groebner(G)
    after = G.algebra.oracle.letters_after
    divides = G.leads.divides_extension
    letters = G.algebra.alphabet.letters
    level = [] if divides(EMPTY) else [EMPTY]
    by_degree = [level]
    for _ in range(max_degree):
        level = [c for w in level for a in after(w, letters) if not divides(c := w + a)]
        by_degree.append(level)
    return QuotientBasis(by_degree)


def count_basis(G, max_degree):
    """The number of normal words of each degree up to the bound, the
    tuple ``enumerate_basis(G, max_degree, strict=False).counts()``,
    without listing the words.

    The words grow by the same rule as in ``enumerate_basis``, but a
    level keeps only the number of normal words in each state of the
    Ufnarovski graph (the index's ``state``, see :mod:`ugb.words`): the
    state decides which extensions stay normal and the state they reach,
    so equal states are extended once.  The counts are those of a
    quotient basis only when the set is a Groebner basis, which this
    does not check.
    """
    G.require_unital()
    if max_degree < 0:
        raise ValueError("max_degree must be nonnegative")
    after = G.algebra.oracle.letters_after
    divides = G.leads.divides_extension
    state = G.leads.state
    letters = G.algebra.alphabet.letters
    level = {} if divides(EMPTY) else {EMPTY: 1}
    counts = [sum(level.values())]
    for _ in range(max_degree):
        grown = {}
        for w, n in level.items():
            for a in after(w, letters):
                if not divides(c := w + a):
                    c = state(c)
                    grown[c] = grown.get(c, 0) + n
        level = grown
        counts.append(sum(level.values()))
    return tuple(counts)


def decompose(f, G, strict=True):
    """Split f into (ideal_part, normal_part) along the generating set.

    The normal part is the remainder of f and the ideal part is f minus
    it, which is the sum of the division steps, so the two add up to f
    exactly.  Strict mode demands a verified Groebner basis: then the
    normal words are a free basis of the quotient, the algebra is the
    ideal plus their span as a direct sum, and the split is its
    projection pair.
    """
    ensure_same_algebra(f.algebra, G.algebra)
    remainder = normal_form(f, G, strict)
    return f - remainder, remainder
