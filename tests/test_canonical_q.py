"""Every coefficient the engine produces is in canonical form.  Over Q
that is an ``int`` when it is integral, a ``Fraction`` otherwise, and
never a ``float``; over Z/n it is an ``int`` residue in [0, n).

Inputs are drawn with fixed seeds and deliberately include integral
``Fraction`` values (``Fraction(4, 2)``), which must come back as
``int``, and over Z/6 integers outside [0, 6), zero divisors among them.
"""

import random
from fractions import Fraction

import pytest

import helpers
from ugb import (
    COMMUTATIVE,
    FREE,
    QQ,
    Algebra,
    CompletionFailure,
    GenSet,
    LieAlgebra,
    RoundsExceeded,
    Zmod,
    build_truncation,
    complete,
    divide,
    is_member,
    s_polynomials,
    validate_lie,
)

RINGS = (QQ, Zmod(6))


class Seen:
    """Checks coefficients one by one and records which forms occurred,
    so a test can show it met every form the ring has: both ``int`` and
    ``Fraction`` over Q, ``int`` over Z/n."""

    def __init__(self, ring=QQ):
        self.ring = ring
        self.types = set()

    def __call__(self, *values):
        for c in values:
            if self.ring == QQ:
                assert type(c) in (int, Fraction), f"{c!r} is a {type(c).__name__}"
                assert type(c) is int or c.denominator != 1, f"integral {c!r} kept as a Fraction"
            else:
                n = self.ring.modulus
                assert type(c) is int and 0 < c < n, f"{c!r} is not a nonzero residue mod {n}"
            self.types.add(type(c))

    def poly(self, p):
        self(*(c for c, _ in p.terms))

    def vector(self, vec):
        """A coefficient vector: its zeros must be the int 0."""
        self(*(c for c in vec if not (type(c) is int and c == 0)))

    def every_form(self):
        return self.types == ({int, Fraction} if self.ring == QQ else {int})


def _value(rng, ring=QQ):
    """Over Q a nonzero rational, often integral, sometimes an integral
    Fraction; over Z/n a nonzero integer, often outside [0, n) and
    sometimes a multiple of n."""
    if ring != QQ:
        return rng.choice([n for n in range(-9, 16) if n])
    num = rng.choice([n for n in range(-6, 7) if n])
    return rng.choice([num, Fraction(num, rng.randint(1, 4)), Fraction(2 * num, 2)])


def _poly(rng, algebra, max_deg=3, max_terms=4):
    n = algebra.alphabet.size
    terms = [
        (_value(rng, algebra.ring), helpers.random_word(rng, n, max_deg, algebra.oracle))
        for _ in range(rng.randint(1, max_terms))
    ]
    return algebra.poly(terms)


def _unital_set(rng, algebra, size):
    gens = []
    while len(gens) < size:
        p = _poly(rng, algebra)
        if p.terms and p.lm() and algebra.ring.inv_unit(p.lc()) is not None:
            gens.append(p)
    return GenSet(gens, algebra)


def test_ring_operations_and_inverses():
    rng = random.Random(11)
    seen = Seen()
    co = QQ.coerce
    for _ in range(400):
        a, b = _value(rng), _value(rng)
        seen(co(a), co(a + b), co(a - b), co(a * b), co(-co(a)), co(co(a)))
        seen(QQ.inv_unit(a), QQ.quotient(a, b), QQ.parse(str(co(a))))
    half = Fraction(1, 2)
    seen(co(0), co(1), co(half + half), co(half - half), co(half * 2))
    assert seen.every_form()


@pytest.mark.parametrize("oracle", [FREE, COMMUTATIVE], ids=["free", "commutative"])
def test_polynomial_arithmetic(oracle):
    for ring in RINGS:
        rng = random.Random(12)
        algebra = Algebra(ring, ["x", "y", "z"], oracle)
        seen = Seen(ring)
        for _ in range(100):
            p, q = _poly(rng, algebra), _poly(rng, algebra)
            for r in (p, q, p + q, p - q, -p, p * q):
                seen.poly(r)
            u = helpers.random_word(rng, 3, 2, oracle)
            seen.poly(p.scale(_value(rng, ring), u, ()))
            inv = ring.inv_unit(p.lc()) if p.terms else None
            if inv is not None:
                seen.poly(p.scale(inv))
        assert seen.every_form()


def test_division_steps_and_remainders():
    for ring in RINGS:
        rng = random.Random(13)
        algebra = Algebra(ring, ["x", "y"])
        seen = Seen(ring)
        for _ in range(40):
            G = _unital_set(rng, algebra, rng.randint(1, 3))
            for _ in range(5):
                trace = divide(_poly(rng, algebra, max_deg=4, max_terms=5), G)
                seen(*(coeff for coeff, _, _, _ in trace.steps))
                seen.poly(trace.remainder)
        assert seen.every_form()


def test_s_polynomials_and_completion():
    # completion over Z/6 may also stop at a remainder whose leading
    # coefficient is a zero divisor
    for ring, stops in ((QQ, RoundsExceeded), (Zmod(6), CompletionFailure)):
        rng = random.Random(14)
        algebra = Algebra(ring, ["x", "y"])
        seen = Seen(ring)
        completed = 0
        for _ in range(30):
            G = _unital_set(rng, algebra, 2)
            for sp in s_polynomials(G):
                seen.poly(sp.value)
            try:
                H = complete(G, 3, max_rounds=3)
            except stops:
                continue
            completed += 1
            for g in H.gens:
                seen.poly(g)
        assert completed and seen.every_form()


def test_lie_report():
    for ring in RINGS:
        rng = random.Random(15)
        seen = Seen(ring)
        violated = 0
        for _ in range(30):
            brackets = {
                (i, j): tuple(_value(rng, ring) if rng.random() < 0.5 else 0 for _ in range(4))
                for i in range(4)
                for j in range(i)
            }
            violations = validate_lie(LieAlgebra(ring, 4, brackets))
            violated += bool(violations)
            for _, sums in violations:
                seen.vector(sums)
        assert violated and seen.every_form()


def test_membership_witnesses():
    for ring in RINGS:
        rng = random.Random(16)
        algebra = Algebra(ring, ["x", "y"])
        seen = Seen(ring)
        members = 0
        for _ in range(15):
            G = _unital_set(rng, algebra, 2)
            T = build_truncation(G, 3)
            for _ in range(4):
                f = helpers.random_ideal_combo(rng, G, max_context=1, parts=2)
                if not f.terms or len(f.terms[0][1]) > 3:
                    continue
                r = is_member(f, T)
                if r.member:
                    members += 1
                    seen(*(coeff for coeff, _, _, _ in r.witness))
        assert members and seen.every_form()
