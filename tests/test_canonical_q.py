"""Every Q coefficient the engine produces is in canonical form: an ``int``
when it is integral, a ``Fraction`` otherwise, and never a ``float``.

Inputs are drawn with fixed seeds and deliberately include integral
``Fraction`` values (``Fraction(4, 2)``), which must come back as ``int``.
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
    GenSet,
    LieAlgebra,
    RoundsExceeded,
    build_truncation,
    complete,
    divide,
    is_member,
    s_polynomials,
    validate_lie,
)


class Seen:
    """Checks coefficients one by one and records which forms occurred,
    so a test can show it met both integral and non-integral values."""

    def __init__(self):
        self.types = set()

    def __call__(self, *values):
        for c in values:
            assert type(c) in (int, Fraction), f"{c!r} is a {type(c).__name__}"
            assert type(c) is int or c.denominator != 1, f"integral {c!r} kept as a Fraction"
            self.types.add(type(c))

    def poly(self, p):
        self(*(c for c, _ in p.terms))

    def both(self):
        return self.types == {int, Fraction}


def _value(rng):
    """A nonzero rational, often integral, sometimes an integral Fraction."""
    num = rng.choice([n for n in range(-6, 7) if n])
    return rng.choice([num, Fraction(num, rng.randint(1, 4)), Fraction(2 * num, 2)])


def _poly(rng, algebra, max_deg=3, max_terms=4):
    n = algebra.alphabet.size
    terms = [
        (_value(rng), helpers.random_word(rng, n, max_deg, algebra.oracle))
        for _ in range(rng.randint(1, max_terms))
    ]
    return algebra.poly(terms)


def _unital_set(rng, algebra, size):
    gens = []
    while len(gens) < size:
        p = _poly(rng, algebra)
        if p.terms and p.lm():
            gens.append(p)
    return GenSet(gens, algebra)


def test_ring_operations_and_inverses():
    rng = random.Random(11)
    seen = Seen()
    for _ in range(400):
        a, b = _value(rng), _value(rng)
        seen(QQ.coerce(a), QQ.add(a, b), QQ.sub(a, b), QQ.mul(a, b), QQ.neg(QQ.coerce(a)))
        seen(QQ.inv_unit(a), QQ.quotient(a, b), QQ.parse(QQ.format(QQ.coerce(a))))
    seen(QQ.coerce(0), QQ.coerce(1), QQ.add(Fraction(1, 2), Fraction(1, 2)), QQ.sub(Fraction(1, 2), Fraction(1, 2)))
    assert seen.both()


@pytest.mark.parametrize("oracle", [FREE, COMMUTATIVE], ids=["free", "commutative"])
def test_polynomial_arithmetic(oracle):
    rng = random.Random(12)
    algebra = Algebra(QQ, ["x", "y", "z"], oracle)
    seen = Seen()
    for _ in range(100):
        p, q = _poly(rng, algebra), _poly(rng, algebra)
        for r in (p, q, p + q, p - q, -p, p * q):
            seen.poly(r)
        u = helpers.random_word(rng, 3, 2, oracle)
        seen.poly(p.scale(_value(rng), u, ()))
        if p.terms:
            seen.poly(p.monic())
    assert seen.both()


def test_division_steps_and_remainders():
    rng = random.Random(13)
    algebra = Algebra(QQ, ["x", "y"])
    seen = Seen()
    for _ in range(40):
        G = _unital_set(rng, algebra, rng.randint(1, 3))
        for _ in range(5):
            trace = divide(_poly(rng, algebra, max_deg=4, max_terms=5), G)
            seen(*(s.coeff for s in trace.steps))
            seen.poly(trace.remainder)
    assert seen.both()


def test_s_polynomials_and_completion():
    rng = random.Random(14)
    algebra = Algebra(QQ, ["x", "y"])
    seen = Seen()
    completed = 0
    for _ in range(30):
        G = _unital_set(rng, algebra, 2)
        for sp in s_polynomials(G):
            seen.poly(sp.value)
        try:
            H = complete(G, 3, max_rounds=3)
        except RoundsExceeded:
            continue
        completed += 1
        for g in H:
            seen.poly(g)
    assert completed and seen.both()


def test_lie_report():
    rng = random.Random(15)
    seen = Seen()
    violated = 0
    for _ in range(30):
        brackets = {
            (i, j): tuple(_value(rng) if rng.random() < 0.5 else 0 for _ in range(4))
            for i in range(4)
            for j in range(i)
        }
        report = validate_lie(LieAlgebra(QQ, 4, brackets))
        violated += not report.ok
        for v in report.violations:
            seen(*v.coefficients)
    assert violated and seen.both()


def test_membership_witnesses():
    rng = random.Random(16)
    algebra = Algebra(QQ, ["x", "y"])
    seen = Seen()
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
                seen(*(s.coeff for s in r.witness))
    assert members and seen.both()
