import math
import operator
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
    times_i,
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
    # an int argument gives a Fraction and a Gaussian one a Gaussian, for
    # every n including the empty product
    for a, kind in ((3, Fraction), (Fraction(-5, 2), Fraction), (GaussianRational(1, 2), GaussianRational)):
        expected = Fraction(1)
        for n in range(5):
            assert type(pochhammer(a, n)) is kind
            assert pochhammer(a, n) == expected
            expected = expected * (a + n)


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


# -- field invariants of every arithmetic result -----------------------------

def _parts(value):
    if isinstance(value, GaussianRational):
        return value.re, value.im
    return Fraction(value), Fraction(0)


def _reference(op, x, y):
    """The operation on (re, im) pairs, written out independently of the
    class: the result a Gaussian operand would give after coercion."""
    (a, b), (c, d) = _parts(x), _parts(y)
    if op is operator.add:
        return a + c, b + d
    if op is operator.sub:
        return a - c, b - d
    if op is operator.mul:
        return a * c - b * d, a * d + b * c
    norm = c * c + d * d
    return (a * c + b * d) / norm, (b * c - a * d) / norm


def _assert_canonical(value):
    assert type(value) is GaussianRational
    for part in (value.re, value.im):
        assert type(part) is Fraction
        assert part.denominator > 0
        assert math.gcd(part.numerator, part.denominator) == 1


FIELD_OPERANDS = [
    0, 1, -3, 7,
    Fraction(0), Fraction(-5, 6), Fraction(9, 4),
    GaussianRational(0, 0), GaussianRational(Fraction(2, 3)), GaussianRational(0, Fraction(-3, 8)),
    GaussianRational(Fraction(-7, 5), Fraction(4, 9)), GaussianRational(6, -2),
]
BINARY_OPS = [operator.add, operator.sub, operator.mul, operator.truediv]


@pytest.mark.parametrize("op", BINARY_OPS, ids=lambda op: op.__name__)
def test_gaussian_results_are_canonical_in_both_operand_orders(op):
    gaussians = [v for v in FIELD_OPERANDS if isinstance(v, GaussianRational)]
    for g in gaussians:
        for other in FIELD_OPERANDS:
            for x, y in ((g, other), (other, g)):
                if op is operator.truediv and _parts(y) == (0, 0):
                    with pytest.raises(ZeroDivisionError, match="division by zero Gaussian rational"):
                        op(x, y)
                    continue
                result = op(x, y)
                _assert_canonical(result)
                assert (result.re, result.im) == _reference(op, x, y), (op, x, y)
                assert result == op(gauss(x), gauss(y))


def test_gaussian_unary_results_are_canonical():
    for g in FIELD_OPERANDS:
        if not isinstance(g, GaussianRational):
            continue
        for result, expect in (
            (-g, (-g.re, -g.im)),
            (g.conjugate(), (g.re, -g.im)),
        ):
            _assert_canonical(result)
            assert (result.re, result.im) == expect
        power = (Fraction(1), Fraction(0))
        for e in range(6):
            result = g ** e
            _assert_canonical(result)
            assert (result.re, result.im) == power
            power = _reference(operator.mul, GaussianRational(*power), g)


@pytest.mark.parametrize("op", BINARY_OPS, ids=lambda op: op.__name__)
@pytest.mark.parametrize("bad", [1.5, "1/2"], ids=["float", "str"])
def test_gaussian_rejects_float_and_str_operands(op, bad):
    g = GaussianRational(Fraction(1, 2), 3)
    with pytest.raises(TypeError):
        op(g, bad)
    with pytest.raises(TypeError):
        op(bad, g)


def test_arithmetic_results_stay_immutable_and_hash_like_rationals():
    g = GaussianRational(Fraction(1, 2), Fraction(-2, 3))
    for result in (g + 1, 2 * g, g - Fraction(1, 3), Fraction(1, 3) - g, g / 4, 3 / g, -g,
                   g.conjugate(), g ** 2):
        with pytest.raises(AttributeError):
            result.re = Fraction(3)
        with pytest.raises(AttributeError):
            result.im = Fraction(3)
    for q in (Fraction(0), Fraction(1, 2), Fraction(-7, 3), Fraction(5)):
        assert hash(gauss(q)) == hash(q)
        real = g * 0 + q  # a real value reached through the fast paths
        assert real.im == 0 and hash(real) == hash(q) and real == q
        assert hash(g + q - g) == hash(q)


# -- the hash is computed once, with the value of the (re, im) parts ---------

def _expected_hash(value):
    if value.im == 0:
        return hash(value.re)
    return hash((value.re, value.im))


def test_gaussian_hash_is_the_parts_hash_computed_once():
    rng = random.Random(67)
    draws = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(24)]
    built = [GaussianRational(a, b) for a, b in zip(draws, draws[1:])]
    built += [GaussianRational(a) for a in draws[:6]] + [GaussianRational(3, 0), GaussianRational(-2, 5)]
    derived = []
    for g, h in zip(built, built[1:]):
        derived += [g + h, g - h, g * h, -g, g.conjugate(), g ** 3, g + 2, Fraction(1, 3) * g,
                    g * g.conjugate(), g - g]
        if h:
            derived += [g / h, 5 / h]
    assert any(v.im == 0 for v in derived) and any(v.im != 0 for v in derived)
    for value in built + derived:
        expected = _expected_hash(value)
        assert hash(value) == expected, value
        assert hash(value) == expected, value  # the stored hash, read back
        with pytest.raises(AttributeError):
            value._hash = 0
        assert hash(value) == expected
    for a, b in zip(draws, draws[1:]):
        assert hash(GaussianRational(a, b)) == (hash((a, b)) if b else hash(a))
        assert hash(GaussianRational(a, 0)) == hash(a)


def test_times_i_is_multiplication_by_i():
    rng = random.Random(71)
    values = [rng.randint(-9, 9) for _ in range(8)]
    values += [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(8)]
    values += [GaussianRational(Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                                Fraction(rng.randint(-9, 9), rng.randint(1, 9))) for _ in range(8)]
    for value in values + [0, Fraction(0), GaussianRational(0, 0)]:
        result = times_i(value)
        _assert_canonical(result)
        assert result == I * value, value
        assert hash(result) == hash(I * value)
    with pytest.raises(TypeError):
        times_i(1.5)


def naive_pochhammer(a, n):
    """a (a+1) ... (a+n-1) in the argument's own arithmetic, from 1."""
    out = Fraction(1) if not isinstance(a, GaussianRational) else GaussianRational(1)
    for k in range(n):
        out = out * (a + k)
    return out


def test_pochhammer_matches_naive_product():
    """The integer product over D^n against the plain product, on int,
    Fraction and Gaussian arguments (real ones too) at benchmark heights:
    equal values, and a Gaussian argument always gives a Gaussian."""
    rng = random.Random(71)
    dens = (1, 7, 13, 17 * 19, 23 * 29 * 31, 707)

    def part():
        den = rng.choice(dens)
        return Fraction(rng.randint(-9 * den, 9 * den), den)

    draws = {
        int: lambda: rng.randint(-9, 9),
        Fraction: part,
        GaussianRational: lambda: GaussianRational(part(), part()),
        "real gaussian": lambda: GaussianRational(part(), 0),
    }
    for kind, draw in draws.items():
        expected_type = Fraction if kind in (int, Fraction) else GaussianRational
        for n in range(9):
            for _ in range(15):
                a = draw()
                value = pochhammer(a, n)
                assert value == naive_pochhammer(a, n), (a, n)
                assert type(value) is expected_type, (a, n)
                if expected_type is GaussianRational:
                    assert type(value.re) is Fraction and type(value.im) is Fraction


def test_pochhammer_empty_product_and_negative_order():
    # (a)_0 is a - a + 1, with an int argument read as a Fraction
    for a in (4, Fraction(-7, 3), GaussianRational(Fraction(1, 2), -3), GaussianRational(5, 0)):
        one = pochhammer(a, 0)
        assert one == 1
        assert type(one) is (GaussianRational if isinstance(a, GaussianRational) else Fraction)
        with pytest.raises(ValueError, match="pochhammer needs n >= 0"):
            pochhammer(a, -1)
    # a vanishing factor gives an exact zero of the argument's kind
    assert pochhammer(-3, 5) == 0 and type(pochhammer(-3, 5)) is Fraction
    zero = pochhammer(GaussianRational(-2, 0), 4)
    assert zero == 0 and type(zero) is GaussianRational
