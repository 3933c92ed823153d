"""Exact coefficient arithmetic: integers, residues mod n, rationals.

Ring objects operate on plain Python values: ``int`` for Z and Z/n, and
for Q an ``int`` when integral and a ``Fraction`` otherwise, never a
``float``.  So zero is ``0``, one is ``1`` and the zero test is
truthiness in every ring.  The interface is deliberately small: add,
neg, sub, mul, equality, unit recognition and unit inversion.  The
reduction engine never divides by anything else; only the membership
echelon asks for ``quotient``, exact division by its pivot entries, and
``modulus``.
"""

from __future__ import annotations

import operator
import re
from fractions import Fraction
from math import gcd

from .errors import NotAUnit

_INT_RE = re.compile(r"[+-]?\d+\Z")
_RAT_RE = re.compile(r"[+-]?\d+(/\d+)?\Z")


def _rational(x):
    """The canonical Q value of an int or Fraction: int when integral."""
    return x if type(x) is int or x.denominator != 1 else x.numerator


class Ring:
    """A commutative ring with unity, acting on raw element values.

    Elements are canonical Python numbers, so every ring's zero is ``0``,
    its one is ``1``, and an element is zero exactly when it is falsy.
    Subclasses supply ``coerce``, ``parse``, ``add``, ``neg``, ``sub``,
    ``mul``, ``is_unit``, ``inv_unit``, ``quotient`` and ``modulus``.
    """

    name = "?"

    def format(self, a):
        return str(a)

    def split_sign(self, a):
        """(is_negative, magnitude) for printing; identity by default."""
        return False, a

    def __repr__(self):
        return self.name


class _NativeRing(Ring):
    """Arithmetic by Python's own operators on ``int`` or ``Fraction``."""

    modulus = 0

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def split_sign(self, a):
        return (a < 0, -a if a < 0 else a)


class IntegerRing(_NativeRing):
    name = "Z"

    def coerce(self, x):
        return operator.index(x)

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


class RationalField(_NativeRing):
    name = "Q"

    def coerce(self, x):
        if isinstance(x, float):
            raise TypeError("floats are not exact; use Fraction or str")
        return x if type(x) is int else _rational(Fraction(x))

    # _rational inlined: these run on every term of every division step
    def add(self, a, b):
        c = a + b
        return c if type(c) is int or c.denominator != 1 else c.numerator

    def sub(self, a, b):
        c = a - b
        return c if type(c) is int or c.denominator != 1 else c.numerator

    def mul(self, a, b):
        c = a * b
        return c if type(c) is int or c.denominator != 1 else c.numerator

    def is_unit(self, a):
        return a != 0

    def inv_unit(self, a):
        if a == 0:
            raise NotAUnit("0 is not a unit in Q")
        return _rational(Fraction(1, a))

    def quotient(self, a, b):
        """Exact quotient a / b (b nonzero)."""
        return self.mul(a, self.inv_unit(b))

    def parse(self, text):
        if not _RAT_RE.match(text):
            raise ValueError(f"not a rational: {text!r}")
        try:
            return _rational(Fraction(text))
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

    def add(self, a, b):
        return (a + b) % self.modulus

    def neg(self, a):
        return (-a) % self.modulus

    def sub(self, a, b):
        return (a - b) % self.modulus

    def mul(self, a, b):
        return (a * b) % self.modulus

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
