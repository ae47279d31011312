import random
from fractions import Fraction

import pytest

from quadlattice.exactfield import (
    GaussianRational,
    I,
    gauss,
    pochhammer,
    rat,
    rat_str,
)


def test_basic_field_examples():
    assert Fraction(1, 2) + Fraction(1, 3) == Fraction(5, 6)
    assert I * I == -1
    assert Fraction(2, 3) / Fraction(2, 3) == 1


def test_division_by_zero_is_an_error():
    with pytest.raises(ZeroDivisionError):
        Fraction(1) / Fraction(0)
    with pytest.raises(ZeroDivisionError):
        gauss(1) / GaussianRational(0, 0)


def test_pochhammer_examples():
    assert pochhammer(Fraction(7, 3), 0) == 1
    assert pochhammer(Fraction(3), 2) == 12
    assert pochhammer(Fraction(1, 2), 3) == Fraction(15, 8)


def test_pochhammer_splitting_property():
    rng = random.Random(7)
    for _ in range(25):
        a = Fraction(rng.randint(-8, 8), rng.randint(1, 9))
        m = rng.randint(0, 10)
        n = rng.randint(0, 10 - m) if m < 10 else 0
        assert pochhammer(a, m + n) == pochhammer(a, m) * pochhammer(a + m, n)


def test_exactness_properties():
    rng = random.Random(11)
    for _ in range(50):
        a = Fraction(rng.randint(-50, 50), rng.randint(1, 40))
        b = Fraction(rng.randint(-50, 50), rng.randint(1, 40))
        assert (a + b) - b == a
        if b:
            assert (a * b) / b == a


def test_gaussian_arithmetic_and_conjugation():
    rng = random.Random(13)
    for _ in range(30):
        x = GaussianRational(
            Fraction(rng.randint(-9, 9), rng.randint(1, 7)),
            Fraction(rng.randint(-9, 9), rng.randint(1, 7)),
        )
        y = GaussianRational(
            Fraction(rng.randint(-9, 9), rng.randint(1, 7)),
            Fraction(rng.randint(-9, 9), rng.randint(1, 7)),
        )
        assert (x * y).conjugate() == x.conjugate() * y.conjugate()
        assert x.conjugate().conjugate() == x
        if y:
            assert (x / y) * y == x


def test_gaussian_embeds_rationals_losslessly():
    q = Fraction(-5, 9)
    g = gauss(q)
    assert g.is_real and g.re == q
    assert g == q
    assert g + Fraction(1, 9) == Fraction(-4, 9)


def test_gaussian_powers():
    assert I ** 2 == -1
    assert I ** 3 == GaussianRational(0, -1)
    assert I ** 4 == 1
    assert GaussianRational(2, 1) ** 0 == 1


def test_serialization_round_trip():
    assert rat_str(Fraction(3, 4)) == "3/4"
    assert rat_str(Fraction(5)) == "5"
    assert rat("3/4") == Fraction(3, 4)
    assert rat("-7") == Fraction(-7)
    g = GaussianRational(Fraction(1, 2), Fraction(-2, 3))
    blob = g.to_json()
    assert blob == {"re": "1/2", "im": "-2/3"}
    assert GaussianRational.from_json(blob) == g


def test_gaussian_is_immutable_and_hashable():
    g = GaussianRational(1, 2)
    with pytest.raises(AttributeError):
        g.re = Fraction(3)
    assert hash(gauss(Fraction(1, 2))) == hash(Fraction(1, 2))
    assert len({g, GaussianRational(1, 2)}) == 1
