"""Exact coefficient arithmetic: integers, residues mod n, rationals.

Coefficients are plain Python values: ``int`` for Z and Z/n, and for Q
an ``int`` when integral and a ``Fraction`` otherwise, never a
``float``.  So zero is ``0``, one is ``1`` and the zero test is
truthiness in every ring.  The engine adds, negates, subtracts and
multiplies with Python's own operators and passes each result through
the ring's one normaliser, ``coerce``.  Beyond that a ring supplies
only what differs between rings: parsing, unit recognition and unit
inversion.  The reduction engine never divides by anything but a unit;
only the membership echelon asks for ``quotient``, exact division by
its pivot entries, and ``modulus``.
"""

from __future__ import annotations

import operator
import re
from fractions import Fraction
from math import gcd

from .errors import NotAUnit

_INT_RE = re.compile(r"[+-]?\d+\Z")
_RAT_RE = re.compile(r"[+-]?\d+(/\d+)?\Z")


class Ring:
    """A commutative ring with unity, acting on raw element values.

    Elements are canonical Python numbers, so every ring's zero is ``0``,
    its one is ``1``, and an element is zero exactly when it is falsy.
    ``coerce`` maps any exact number to its canonical element, so the
    sum, difference or product of two elements is ``coerce`` of Python's
    ``+``, ``-`` or ``*``.  Subclasses supply ``coerce``, ``parse``,
    ``is_unit``, ``inv_unit`` and ``quotient``.
    """

    name = "?"
    modulus = 0

    def split_sign(self, a):
        """(is_negative, magnitude) for printing."""
        return (a < 0, -a if a < 0 else a)

    def __repr__(self):
        return self.name


class IntegerRing(Ring):
    name = "Z"

    coerce = staticmethod(operator.index)

    def is_unit(self, a):
        return a == 1 or a == -1

    def inv_unit(self, a):
        if a == 1 or a == -1:
            return a
        raise NotAUnit(f"{a} is not a unit in Z")

    def quotient(self, a, b):
        """Exact quotient a / b, or None when b does not divide a."""
        return a // b if a % b == 0 else None

    def parse(self, text):
        if not _INT_RE.match(text):
            raise ValueError(f"not an integer: {text!r}")
        return int(text)

    def __eq__(self, other):
        return type(other) is IntegerRing

    def __hash__(self):
        return hash("Z")


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

    def is_unit(self, a):
        return a != 0

    def inv_unit(self, a):
        if a == 0:
            raise NotAUnit("0 is not a unit in Q")
        return self.coerce(Fraction(1, a))

    def quotient(self, a, b):
        """Exact quotient a / b (b nonzero)."""
        return self.coerce(a * self.inv_unit(b))

    def parse(self, text):
        if not _RAT_RE.match(text):
            raise ValueError(f"not a rational: {text!r}")
        try:
            return self.coerce(Fraction(text))
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {text!r}") from None

    def __eq__(self, other):
        return type(other) is RationalField

    def __hash__(self):
        return hash("Q")


class ModularRing(Ring):
    """Z/n with canonical residues in [0, n); unit inversion via xgcd."""

    def __init__(self, modulus):
        modulus = operator.index(modulus)
        if modulus < 2:
            raise ValueError("modulus must be at least 2")
        self.modulus = modulus
        self.name = f"Z/{modulus}"

    def coerce(self, x):
        return operator.index(x) % self.modulus

    def split_sign(self, a):
        """Residues print unsigned."""
        return False, a

    def is_unit(self, a):
        return gcd(a, self.modulus) == 1

    def inv_unit(self, a):
        try:
            return pow(a, -1, self.modulus)
        except ValueError:
            raise NotAUnit(f"{a} is not a unit in {self.name}") from None

    # the membership echelon divides residues only by divisors of n, and
    # for those integer divisibility is divisibility in Z/n
    quotient = IntegerRing.quotient

    def parse(self, text):
        if not _INT_RE.match(text):
            raise ValueError(f"not a residue: {text!r}")
        return int(text) % self.modulus

    def __eq__(self, other):
        return type(other) is ModularRing and other.modulus == self.modulus

    def __hash__(self):
        return hash(("Z/", self.modulus))


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
