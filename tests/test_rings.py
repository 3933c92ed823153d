import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import helpers
from ugb import QQ, ZZ, Algebra, Zmod, ring_from_name


# A sum, difference or product of two ring elements is ``coerce`` of
# Python's own operator on them.

def test_integer_examples():
    assert ZZ.coerce(2 + -2) == 0
    assert ZZ.coerce(3 * 0) == 0
    assert ZZ.inv_unit(1) == 1
    assert ZZ.inv_unit(-1) == -1
    assert ZZ.inv_unit(2) is None
    assert ZZ.inv_unit(0) is None


def test_modular_examples():
    R = Zmod(6)
    assert R.coerce(4 + 5) == 3
    assert R.coerce(2 * 3) == 0
    # exhaustive search confirms 5 is self-inverse mod 6
    inverses = [b for b in range(6) if (5 * b) % 6 == 1]
    assert inverses == [5]
    assert R.inv_unit(5) == 5
    assert R.inv_unit(2) is None
    assert R.inv_unit(0) is None


def test_rational_examples():
    assert _same(QQ.coerce(Fraction(1, 2) + Fraction(1, 3)), Fraction(5, 6))
    assert _same(QQ.coerce(Fraction(2, 3) * Fraction(3, 2)), 1)
    # an int is kept, an integral Fraction becomes its int, and any other
    # exact input goes through Fraction
    assert _same(QQ.coerce(7), 7)
    assert _same(QQ.coerce(Fraction(-6, 3)), -2)
    assert _same(QQ.coerce(True), 1)
    assert _same(QQ.coerce("3/4"), Fraction(3, 4))
    assert QQ.inv_unit(0) is None
    assert QQ.inv_unit(Fraction(3, 4)) == Fraction(4, 3)
    assert QQ.inv_unit(Fraction(2, 3)) == Fraction(3, 2)


def _same(value, expected):
    return value == expected and type(value) is type(expected)


# int, integral Fraction and non-integral Fraction inputs; exact results
# come back as int when integral and as Fraction otherwise
@pytest.mark.parametrize("a,inverse", [
    (2, Fraction(1, 2)),
    (-1, -1),
    (1, 1),
    (Fraction(4, 2), Fraction(1, 2)),
    (Fraction(-3, 1), Fraction(-1, 3)),
    (Fraction(-1, 3), -3),
    (Fraction(2, 3), Fraction(3, 2)),
])
def test_rational_inv_unit_is_exact(a, inverse):
    assert _same(QQ.inv_unit(a), inverse)


@pytest.mark.parametrize("a,b,quotient", [
    (6, 3, 2),
    (3, 6, Fraction(1, 2)),
    (0, 7, 0),
    (Fraction(6, 1), Fraction(-3, 1), -2),
    (Fraction(4, 2), 3, Fraction(2, 3)),
    (Fraction(3, 4), Fraction(1, 4), 3),
    (Fraction(1, 2), 3, Fraction(1, 6)),
    (5, Fraction(5, 2), 2),
])
def test_rational_quotient_is_exact(a, b, quotient):
    assert _same(QQ.quotient(a, b), quotient)


def _assert_zero_is_falsy(ring, a, b):
    # the element contract the engine relies on: zero is 0, a result is
    # falsy exactly when it equals 0, and coerce leaves an element as it is
    co = ring.coerce
    a, b = co(a), co(b)
    results = [co(a), co(a + b), co(a - b), co(a * b), co(-a), co(a + co(-a)), co(a - a)]
    for x in results:
        assert (not x) == (x == 0), (ring, a, b, x)
        assert _same(co(x), x), (ring, a, b, x)


@pytest.mark.parametrize("ring,a,b,zero", [
    (QQ, Fraction(1, 2), Fraction(-1, 2), "add"),
    (QQ, Fraction(1, 3), Fraction(1, 3), "sub"),
    (Zmod(6), 2, 3, "mul"),
    (Zmod(6), 4, 2, "add"),
    (Zmod(7), 7, 1, "coerce"),
    (ZZ, 5, -5, "add"),
])
def test_zero_results_are_falsy(ring, a, b, zero):
    # pinned samples whose named result is a zero reached by cancellation,
    # a zero divisor or reduction mod n
    value = ring.coerce(a if zero == "coerce" else getattr(operator, zero)(a, b))
    assert value == 0 and not value
    _assert_zero_is_falsy(ring, a, b)


@pytest.mark.parametrize("ring,sample", [
    (ZZ, st.integers(-50, 50)),
    (Zmod(6), st.integers(-13, 13)),
    (Zmod(7), st.integers(-15, 15)),
    (QQ, st.integers(1, 20).flatmap(
        lambda d: st.builds(Fraction, st.integers(-20 * d, 20 * d), st.just(d))
    )),
])
class TestRingAxioms:
    @given(data=st.data())
    def test_axioms(self, ring, sample, data):
        # raw draws, so over Z/n coerce also meets non-canonical integers
        x = data.draw(sample)
        y = data.draw(sample)
        z = data.draw(sample)
        co = ring.coerce
        for raw in (x, y, z):
            assert _same(co(co(raw)), co(raw))
        a, b, c = co(x), co(y), co(z)
        assert co(a + b) == co(b + a)
        assert co(co(a + b) + c) == co(a + co(b + c))
        assert co(a * b) == co(b * a)
        assert co(co(a * b) * c) == co(a * co(b * c))
        assert co(a * co(b + c)) == co(co(a * b) + co(a * c))
        assert co(a + 0) == a
        assert co(a * 1) == a
        assert co(a + co(-a)) == 0
        assert co(a - b) == co(a + co(-b))
        _assert_zero_is_falsy(ring, x, y)

    def test_unit_inverse(self, ring, sample):
        rng = random.Random(5)
        units = 0
        while units < 50:
            a = helpers.random_nonzero(rng, ring)
            inv = ring.inv_unit(a)
            if inv is None:
                continue
            units += 1
            assert ring.coerce(a * inv) == 1


def test_modular_units_match_brute_force():
    # independent oracle: a is a unit iff some b satisfies a*b == 1 mod n
    for n in range(2, 101):
        R = Zmod(n)
        for a in range(n):
            brute = any((a * b) % n == 1 for b in range(n))
            inv = R.inv_unit(a)
            assert (inv is not None) == brute, (a, n)
            if inv is not None:
                assert a * inv % n == 1, (a, n)


def test_modular_canonical_residues():
    R = Zmod(5)
    assert R.coerce(-1) == 4
    assert R.coerce(-0) == 0
    assert R.coerce(-4) == 1
    assert R.coerce(12) == 2
    assert R.parse("-3") == 2
    assert R.coerce(1 - 3) == 3


def test_parse_format_round_trip():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(-10**6, 10**6)
        assert ZZ.parse(str(n)) == n
        q = Fraction(rng.randint(-99, 99), rng.randint(1, 99))
        assert QQ.parse(str(q)) == q
        R = Zmod(rng.randint(2, 50))
        r = rng.randrange(R.modulus)
        assert R.parse(str(r)) == r


def test_parse_rejects_junk():
    with pytest.raises(ValueError):
        ZZ.parse("1.5")
    with pytest.raises(ValueError):
        QQ.parse("0.5")
    with pytest.raises(ValueError):
        QQ.parse("x")
    with pytest.raises(ValueError):
        Zmod(4).parse("2/3")


def test_ring_names():
    assert ring_from_name("Z") == ZZ
    assert ring_from_name("Q") == QQ
    assert ring_from_name("Z/12") == Zmod(12)
    assert ring_from_name("Z/12") != Zmod(13)
    # one equality for every ring: same type and same name
    assert ZZ != QQ
    assert Zmod(4) != ZZ
    assert hash(ring_from_name("Z/12")) == hash(Zmod(12))
    assert Algebra(ring_from_name("Z/12"), ["x"]) == Algebra(Zmod(12), ["x"])
    with pytest.raises(ValueError):
        ring_from_name("Z/1")
    with pytest.raises(ValueError):
        ring_from_name("GF(4)")


def test_coerce_rejects_floats():
    with pytest.raises(TypeError):
        QQ.coerce(0.5)
    with pytest.raises(TypeError):
        QQ.coerce(2.0)
    # Z and Z/n take only integers
    for ring in (ZZ, Zmod(5)):
        for value in (1.0, Fraction(1, 2), Fraction(4, 2), "3"):
            with pytest.raises(TypeError):
                ring.coerce(value)
