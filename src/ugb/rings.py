"""Exact coefficient arithmetic: integers, residues mod n, rationals.

Coefficients are plain Python values: ``int`` for Z and Z/n, and for Q
an ``int`` when integral and a ``Fraction`` otherwise, never a
``float``.  So zero is ``0``, one is ``1`` and the zero test is
truthiness in every ring.  The engine adds, negates, subtracts and
multiplies with Python's own operators and passes each result through
the ring's one normaliser, ``coerce``.  Beyond that a ring supplies
only what differs between rings: ``parse``, and ``inv_unit``, which
answers the one question the reducer asks, whether a leading coefficient
is a unit, with its inverse or None.  The reduction engine never divides
by anything but a unit; only the membership echelon asks for
``quotient``, exact division by its pivot entries, and ``modulus``.
Equality, hashing and printing are shared: a ring is known by its
``name``.
"""

from __future__ import annotations

import operator
import re
from fractions import Fraction

_INT_RE = re.compile(r"[+-]?\d+\Z")
_RAT_RE = re.compile(r"[+-]?\d+(/\d+)?\Z")


class Ring:
    """A commutative ring with unity, acting on raw element values.

    Elements are canonical Python numbers, so every ring's zero is ``0``,
    its one is ``1``, and an element is zero exactly when it is falsy.
    ``coerce`` maps any exact number to its canonical element, so the
    sum, difference or product of two elements is ``coerce`` of Python's
    ``+``, ``-`` or ``*``.  Subclasses supply ``coerce``, ``parse``,
    ``inv_unit`` (the inverse of a unit, None for a non-unit) and
    ``quotient``.  Two rings are equal when they have one type and one
    ``name``.
    """

    name = "?"
    modulus = 0

    def __eq__(self, other):
        return type(other) is type(self) and other.name == self.name

    def __hash__(self):
        return hash(self.name)

    def __repr__(self):
        return self.name


class IntegerRing(Ring):
    name = "Z"

    coerce = staticmethod(operator.index)

    def inv_unit(self, a):
        return a if a == 1 or a == -1 else None

    def quotient(self, a, b):
        """Exact quotient a / b, or None when b does not divide a."""
        return a // b if a % b == 0 else None

    def parse(self, text):
        if not _INT_RE.match(text):
            raise ValueError(f"not an integer: {text!r}")
        return int(text)


class RationalField(Ring):
    name = "Q"

    def coerce(self, x):
        """The canonical value of x: an int when integral, else a Fraction."""
        if type(x) is int:
            return x
        if type(x) is Fraction:
            return x if x.denominator != 1 else x.numerator
        if isinstance(x, float):
            raise TypeError("floats are not exact; use Fraction or str")
        return self.coerce(Fraction(x))

    def inv_unit(self, a):
        if a == 1 or a == -1:  # the leading coefficient of most generators
            return int(a)
        return self.coerce(Fraction(1, a)) if a else None

    def quotient(self, a, b):
        """Exact quotient a / b (b nonzero)."""
        return self.coerce(Fraction(a, b))

    def parse(self, text):
        if not _RAT_RE.match(text):
            raise ValueError(f"not a rational: {text!r}")
        if "/" not in text:
            return int(text)
        try:
            return self.coerce(Fraction(text))
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {text!r}") from None


class ModularRing(Ring):
    """Z/n with canonical residues in [0, n), which print unsigned; the
    inverse of a unit is Python's modular ``pow(a, -1, n)``."""

    def __init__(self, modulus):
        modulus = operator.index(modulus)
        if modulus < 2:
            raise ValueError("modulus must be at least 2")
        self.modulus = modulus
        self.name = f"Z/{modulus}"

    def coerce(self, x):
        return operator.index(x) % self.modulus

    def inv_unit(self, a):
        try:
            return pow(a, -1, self.modulus)
        except ValueError:
            return None

    # the membership echelon divides residues only by divisors of n, and
    # for those integer divisibility is divisibility in Z/n
    quotient = IntegerRing.quotient

    def parse(self, text):
        if not _INT_RE.match(text):
            raise ValueError(f"not a residue: {text!r}")
        return int(text) % self.modulus


ZZ = IntegerRing()
QQ = RationalField()
Zmod = ModularRing


def ring_from_name(text):
    """Ring from its text name: "Z", "Q" or "Z/<n>"."""
    text = text.strip()
    if text == "Z":
        return ZZ
    if text == "Q":
        return QQ
    if text.startswith("Z/"):
        tail = text[2:]
        if not tail.isdecimal():
            raise ValueError(f"bad modulus in ring name {text!r}")
        return ModularRing(int(tail))
    raise ValueError(f"unknown ring {text!r} (expected Z, Q or Z/<n>)")
