"""Sparse polynomials in a free or commutative-monomial algebra.

An :class:`Algebra` fixes the coefficient ring, the alphabet and the
basis-multiplication oracle; the monomial order is the fixed graded lex
of :mod:`ugb.words`.  A :class:`Poly` is an immutable tuple of
(coefficient, word) terms, strictly descending in the order, so the
leading term is ``terms[0]``.  ``Algebra.poly``, ``+``, ``-`` and ``*``
lay terms out through one normaliser, ``Algebra._sum``, whose layout
half ``Algebra._layout`` also lays out s-polynomials; ``scale`` and
negation keep the layout they are given.

The oracle protocol (the word product ``context``, the basis test, the
growth rule and the lead-word index) is described once, in
:mod:`ugb.words`.
"""

from __future__ import annotations

from .errors import AlgebraMismatch, BasisViolation, ZeroPolynomial
from .words import COMMUTATIVE, EMPTY, FREE, Alphabet


def oracle_from_name(text):
    text = text.strip()
    if text == "free":
        return FREE
    if text == "commutative":
        return COMMUTATIVE
    raise ValueError(f"unknown oracle {text!r} (expected free or commutative)")


def ensure_same_algebra(a, b):
    """Raise AlgebraMismatch unless the algebras agree."""
    if a is not b and a != b:
        raise AlgebraMismatch(f"algebras differ: {a!r} vs {b!r}")


class Algebra:
    """Context for polynomial arithmetic: ring, alphabet, oracle."""

    __slots__ = ("ring", "alphabet", "oracle")

    def __init__(self, ring, alphabet, oracle=FREE):
        if not isinstance(alphabet, Alphabet):
            alphabet = Alphabet(alphabet)
        self.ring = ring
        self.alphabet = alphabet
        self.oracle = oracle

    def __eq__(self, other):
        return (
            isinstance(other, Algebra)
            and other.ring == self.ring
            and other.alphabet == self.alphabet
            and type(other.oracle) is type(self.oracle)
        )

    def __hash__(self):
        return hash((self.ring, self.alphabet, type(self.oracle)))

    def __repr__(self):
        return f"Algebra({self.ring}, {list(self.alphabet.names)}, {self.oracle.name})"

    def check_word(self, word):
        """The basis word of an iterable of letter indices, as ``bytes``: the
        one word check, of parsed and library words alike.  ``bytes`` checks
        the letters in C and one ``max`` bounds them by the alphabet; a
        non-iterable, a bad letter or a non-basis word raises BasisViolation."""
        if not isinstance(word, bytes):
            try:
                word = tuple(word)  # so a message shows an iterator's letters
                word = bytes(word)
            except (TypeError, ValueError):
                raise BasisViolation(f"word {word!r}: a letter index out of range or not an int") from None
        if word and max(word) >= self.alphabet.size:
            raise BasisViolation(f"letter index {max(word)} out of range")
        if not self.oracle.is_basis_word(word):
            raise BasisViolation(
                f"{self.alphabet.word_text(word)!r} is not a basis word of the "
                f"{self.oracle.name} oracle"
            )
        return word

    def poly(self, terms):
        """Normalized polynomial from raw (coefficient, word) pairs.

        Like terms merge, zero coefficients drop, non-basis words raise.
        """
        ring = self.ring
        checked = []
        for coeff, word in terms:
            word = self.check_word(word)
            c = ring.coerce(coeff)
            if c:
                checked.append((c, word))
        return self._sum(checked)

    def _sum(self, terms):
        """The polynomial of trusted terms, (nonzero ring element, basis
        word) pairs.  Like terms merge and drop when they cancel, the only
        place a zero can arise; then ``_layout``."""
        coerce = self.ring.coerce
        acc = {}
        for c, w in terms:
            if w in acc:
                c = coerce(acc[w] + c)
                if not c:
                    del acc[w]
                    continue
            acc[w] = c
        return self._layout(acc)

    def _layout(self, acc):
        """The polynomial of a dict, basis word -> nonzero ring element: words
        descending in graded lex, by C-level bytes order, then by length."""
        words = sorted(sorted(acc, reverse=True), key=len, reverse=True)
        return Poly(self, tuple([(acc[w], w) for w in words]))

    def zero(self):
        return Poly(self, ())

    def one(self):
        return Poly(self, ((1, EMPTY),))

    def monomial(self, word, coeff=1):
        return self.poly([(coeff, word)])


class Poly:
    """Immutable sparse polynomial; ``terms`` is descending in graded lex.

    Construct through :meth:`Algebra.poly`; the raw constructor trusts
    its input to be normalized already.
    """

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra, terms):
        self.algebra = algebra
        self.terms = terms

    def is_zero(self):
        return not self.terms

    def leading(self):
        """(leading coefficient, leading word)."""
        if not self.terms:
            raise ZeroPolynomial("the zero polynomial has no leading term")
        return self.terms[0]

    def lc(self):
        return self.leading()[0]

    def lm(self):
        return self.leading()[1]

    def __add__(self, other):
        ensure_same_algebra(self.algebra, other.algebra)
        return self.algebra._sum(self.terms + other.terms)

    def __neg__(self):
        coerce = self.algebra.ring.coerce
        return Poly(self.algebra, tuple((coerce(-c), w) for c, w in self.terms))

    def __sub__(self, other):
        return self.__add__(-other)

    def scale(self, coeff, left=EMPTY, right=EMPTY):
        """coeff * (left * self * right), through the oracle.

        Monic-word oracles keep the term layout of ``self``: the word map
        is injective and order-preserving, so no re-sort is needed.  Over
        rings with zero divisors individual coefficients may still die.
        """
        coerce = self.algebra.ring.coerce
        context = self.algebra.oracle.context
        left = self.algebra.check_word(left)
        right = self.algebra.check_word(right)
        c = coerce(coeff)
        out = []
        for tc, tw in self.terms:
            nc = coerce(c * tc)
            if not nc:
                continue
            out.append((nc, context(left, tw, right)))
        return Poly(self.algebra, tuple(out))

    def __mul__(self, other):
        ensure_same_algebra(self.algebra, other.algebra)
        coerce = self.algebra.ring.coerce
        context = self.algebra.oracle.context
        products = (
            (coerce(ca * cb), context(wa, wb, EMPTY))
            for ca, wa in self.terms
            for cb, wb in other.terms
        )
        # over Z/n a product of two nonzero coefficients can be zero
        return self.algebra._sum(t for t in products if t[0])

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and other.algebra == self.algebra
            and other.terms == self.terms
        )

    def __hash__(self):
        return hash((self.algebra, self.terms))

    def __str__(self):
        if not self.terms:
            return "0"
        alphabet = self.algebra.alphabet
        parts = []
        for k, (c, w) in enumerate(self.terms):
            # canonical values: residues of Z/n are never negative
            negative = c < 0
            magnitude = -c if negative else c
            if k == 0:
                head = "- " if negative else ""
            else:
                head = " - " if negative else " + "
            if not w:
                body = str(magnitude)
            elif magnitude == 1:
                body = alphabet.word_text(w)
            else:
                body = f"{magnitude}*{alphabet.word_text(w)}"
            parts.append(head + body)
        return "".join(parts)

    def __repr__(self):
        return str(self)
