"""Exact arithmetic the benchmark owns: coefficient rings and free-algebra
polynomials as ``{word: coeff}`` dicts, with words as tuples of symbol
names.

The corpus generators and the known-answer checkers use this module
instead of the engine, so no answer is judged by the code being timed.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd

_NUMBER_RE = re.compile(r"\d+(/\d+)?\Z")


class Ring:
    """Z, Q or Z/n from its problem-file name."""

    def __init__(self, name):
        self.name = name
        self.modulus = int(name[2:]) if name.startswith("Z/") else None
        if name not in ("Z", "Q") and self.modulus is None:
            raise ValueError(f"unknown ring {name!r}")

    def norm(self, c):
        if self.name == "Q":
            return Fraction(c)
        if self.modulus is not None:
            return int(c) % self.modulus
        return int(c)

    def units(self):
        """A few units to draw coefficients from."""
        if self.name == "Q":
            return [Fraction(1), Fraction(-1), Fraction(2), Fraction(-1, 2), Fraction(3, 2)]
        if self.modulus is not None:
            return [u for u in range(1, self.modulus) if gcd(u, self.modulus) == 1]
        return [1, -1]

    def parse(self, text):
        if self.name == "Q":
            return Fraction(text)
        return self.norm(int(text))

    def __repr__(self):
        return self.name


def add_into(acc, poly, ring, scale=1, left=(), right=()):
    """acc += scale * left * poly * right, dropping zero coefficients."""
    for w, c in poly.items():
        word = left + w + right
        value = ring.norm(acc.get(word, 0) + scale * c)
        if value == 0:
            acc.pop(word, None)
        else:
            acc[word] = value
    return acc


def key(word, index):
    """Graded lexicographic key under the alphabet order ``index``."""
    return (len(word), tuple(index[s] for s in word))


def to_text(poly, names):
    """Problem-file text of a polynomial, descending in the order."""
    if not poly:
        return "0"
    index = {s: i for i, s in enumerate(names)}
    parts = []
    for w in sorted(poly, key=lambda w: key(w, index), reverse=True):
        c = poly[w]
        negative = c < 0
        mag = -c if negative else c
        sign = ("- " if negative else "") if not parts else (" - " if negative else " + ")
        if not w:
            body = str(mag)
        elif mag == 1:
            body = " ".join(w)
        else:
            body = f"{mag}*" + " ".join(w)
        parts.append(sign + body)
    return "".join(parts)


def parse_text(text, ring):
    """Polynomial from the engine's canonical output text."""
    poly = {}
    if text.strip() == "0":
        return poly
    sign = 1
    coeff = None
    word = []

    def flush():
        if coeff is None and not word:
            return
        c = ring.norm(sign * (1 if coeff is None else coeff))
        add_into(poly, {tuple(word): c}, ring)

    for token in text.split():
        if token in "+-":
            flush()
            sign, coeff, word = (1 if token == "+" else -1), None, []
        elif "*" in token:
            head, _, letter = token.partition("*")
            coeff = ring.parse(head)
            if letter != "1":
                word.append(letter)
        elif _NUMBER_RE.match(token):
            coeff = ring.parse(token)
        else:
            word.append(token)
    flush()
    return poly


def word_of(text):
    """Word from the engine's word text, where "1" is the empty word."""
    return () if text == "1" else tuple(text.split())
