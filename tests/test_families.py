import random
import re
from fractions import Fraction
from itertools import product

import pytest

from quadlattice import families as fam
from quadlattice import latticeops as lo
from quadlattice.exactfield import (
    GaussianRational, demote, from_parts, gauss, gdot, imag_part, integer_parts,
)
from quadlattice.fbasis import interpolate_univariate

RACAH_ARGS = (Fraction(1, 5), Fraction(2, 3), Fraction(7, 3), Fraction(9, 2))
PTS2 = [(Fraction(8, 7), Fraction(16, 7)), (Fraction(15, 7), Fraction(23, 7)),
        (Fraction(22, 7), Fraction(30, 11))]


def rnd_fraction(rng, lo_=-6, hi=6, den=9):
    return Fraction(rng.randint(lo_, hi), rng.randint(1, den))


# -- univariate factors ------------------------------------------------------

def test_racah_uni_zero_order_and_oracle():
    a, b, g, d = RACAH_ARGS
    assert fam.racah_uni(0, a, b, g, d, Fraction(8, 7)) == 1
    rng = random.Random(41)
    for _ in range(6):
        n = rng.randint(1, 4)
        args = tuple(rnd_fraction(rng) for _ in range(4))
        s = rnd_fraction(rng, 1, 9, 7)
        try:
            primary = fam.racah_uni(n, *args, s)
        except fam.DegenerateParameterError:
            continue
        assert primary == fam.racah_uni_oracle(n, *args, s)


def test_racah_uni_degrees_by_interpolation():
    a, b, g, d = RACAH_ARGS
    n = 3
    # degree 2n in s
    pts = [Fraction(k, 7) + 3 for k in range(2 * n + 2)]
    vals = [fam.racah_uni(n, a, b, g, d, s) for s in pts]
    coeffs = interpolate_univariate(pts, vals)
    assert coeffs[2 * n] != 0
    # degree n in the lattice s(s + g + d + 1)
    spec = lo.quadratic(g + d + 1)
    pts = lo.grid_points(spec, n + 2)
    xs = [lo.lattice_value(spec, s) for s in pts]
    coeffs = interpolate_univariate(xs, [fam.racah_uni(n, a, b, g, d, s) for s in pts])
    assert coeffs[n] != 0 and all(c == 0 for c in coeffs[n + 1:])


def test_wilson_cdh_ch_oracles_and_base_cases():
    rng = random.Random(43)
    x = Fraction(8, 7)
    e2 = Fraction(2, 5)
    iy = GaussianRational(0, 1) * gauss(Fraction(9, 7))
    assert fam.wilson_uni(0, Fraction(1, 2), Fraction(3, 4), Fraction(5, 4), Fraction(7, 6), x) == 1
    assert fam.cdh_uni(0, Fraction(1, 2), Fraction(3, 4), Fraction(5, 4), x) == 1
    assert fam.ch_uni(0, Fraction(1, 3), Fraction(5, 6), Fraction(4, 9), Fraction(3, 5), x) == 1
    for _ in range(5):
        n = rng.randint(1, 4)
        a, b = rnd_fraction(rng, 1, 5), rnd_fraction(rng, 1, 5)
        c, d = gauss(e2) + iy, gauss(e2) - iy
        assert fam.wilson_uni(n, a, b, c, d, x) == fam.wilson_uni_oracle(n, a, b, c, d, x)
        assert fam.cdh_uni(n, a, c, d, x) == fam.cdh_uni_oracle(n, a, c, d, x)
        assert fam.ch_uni(n, a, b, c, d, x) == fam.ch_uni_oracle(n, a, b, c, d, x)


def test_wilson_even_in_x():
    args = (Fraction(1, 2), Fraction(3, 4), Fraction(5, 4), Fraction(7, 6))
    for n in (1, 2, 3):
        assert fam.wilson_uni(n, *args, Fraction(8, 7)) == fam.wilson_uni(n, *args, -Fraction(8, 7))


def test_h1_value_from_oracle():
    # explicit spec-style cross-check of a degree-one continuous Hahn value
    a, b, c, d, x = Fraction(1, 3), Fraction(5, 6), Fraction(4, 9), Fraction(3, 5), Fraction(8, 7)
    assert fam.ch_uni(1, a, b, c, d, x) == fam.ch_uni_oracle(1, a, b, c, d, x)
    sigma = a + b + c + d
    expect = GaussianRational(0, 1) * (
        gauss((a + b) * (a + d)) - sigma * (gauss(a) + GaussianRational(0, 1) * x)
    )
    assert fam.ch_uni(1, a, b, c, d, x) == demote(expect)


def test_degenerate_parameters_raise():
    with pytest.raises(fam.DegenerateParameterError):
        fam.racah_uni(3, Fraction(-2), Fraction(1, 2), Fraction(1, 3), Fraction(1, 5), Fraction(8, 7))
    with pytest.raises(fam.DegenerateParameterError):
        fam.wilson_uni(2, Fraction(1), Fraction(-1), Fraction(2), Fraction(2), Fraction(8, 7))
    with pytest.raises(fam.DegenerateParameterError):
        fam.hyper_series_oracle([Fraction(-3)], [Fraction(-1)], 4)


# The primaries multiply prefix products of the upper parameters with suffix
# products of the lower tails and divide by k! only; the oracles divide term
# ratios.  Seed-pinned random draws cover n = 0..6 and three argument kinds:
# real, the conjugate pair e2 +- iy as the couplings pass it, and general
# Gaussian arguments; integer Racah points make the numerator truncate.
PRIMARIES = (
    ("racah", fam.racah_uni, fam.racah_uni_oracle, 5),
    ("wilson", fam.wilson_uni, fam.wilson_uni_oracle, 5),
    ("cdh", fam.cdh_uni, fam.cdh_uni_oracle, 4),
    ("ch", fam.ch_uni, fam.ch_uni_oracle, 5),
)
PAIR_SLOTS = {"wilson": (2, 3), "cdh": (1, 2), "ch": (2, 3)}
DEGENERATE_MESSAGE = r"^denominator parameter \S+ = -?\d+ hits zero at shift \d+$"


def rnd_gauss(rng):
    return GaussianRational(rnd_fraction(rng), rnd_fraction(rng))


def draw_primary_args(rng, kind, arity, argument):
    if argument == "real":
        return [rnd_fraction(rng) for _ in range(arity)]
    if argument == "gaussian":
        return [rnd_gauss(rng) for _ in range(arity)]
    args = [rnd_fraction(rng) for _ in range(arity)]
    e2, y = rnd_fraction(rng), rnd_fraction(rng)
    if kind == "racah":  # integer lattice point: (-s)_k truncates the sum
        args[-1] = Fraction(rng.randint(0, 6))
    else:
        i, j = PAIR_SLOTS[kind]
        args[i], args[j] = GaussianRational(e2, y), GaussianRational(e2, -y)
    return args


@pytest.mark.parametrize("kind, primary, oracle, arity", PRIMARIES, ids=[p[0] for p in PRIMARIES])
@pytest.mark.parametrize("argument", ["real", "pair", "gaussian"])
def test_primaries_match_series_oracles(kind, primary, oracle, arity, argument):
    rng = random.Random(f"{kind}-{argument}")
    checked = 0
    for n in range(7):
        for _ in range(4):
            args = draw_primary_args(rng, kind, arity, argument)
            try:
                value = primary(n, *args)
            except fam.DegenerateParameterError as exc:
                assert re.match(DEGENERATE_MESSAGE, str(exc)), str(exc)
                with pytest.raises(fam.DegenerateParameterError):
                    oracle(n, *args)
                continue
            assert value == oracle(n, *args), (kind, n, args)
            if imag_part(value) == 0:
                assert type(value) is Fraction
            else:
                assert type(value) is GaussianRational
            checked += 1
    assert checked >= 20


@pytest.mark.parametrize("call, message", [
    (lambda: fam.racah_uni(3, Fraction(-3), Fraction(1, 2), Fraction(1, 3), Fraction(1, 5), Fraction(8, 7)),
     "denominator parameter alpha+1 = -2 hits zero at shift 2"),
    (lambda: fam.racah_uni(2, Fraction(1, 2), Fraction(1, 3), Fraction(-1), Fraction(1, 5), Fraction(8, 7)),
     "denominator parameter gamma+1 = 0 hits zero at shift 0"),
    (lambda: fam.wilson_uni(2, Fraction(1), Fraction(-2), Fraction(1, 2), Fraction(2), Fraction(8, 7)),
     "denominator parameter a+b = -1 hits zero at shift 1"),
    (lambda: fam.cdh_uni(4, Fraction(1, 2), Fraction(1, 3), Fraction(-7, 2), Fraction(8, 7)),
     "denominator parameter a+c = -3 hits zero at shift 3"),
    (lambda: fam.ch_uni(1, Fraction(1, 2), Fraction(1, 3), Fraction(1, 4), Fraction(-1, 2), Fraction(8, 7)),
     "denominator parameter a+d = 0 hits zero at shift 0"),
], ids=["racah-alpha", "racah-gamma", "wilson", "cdh", "ch"])
def test_degenerate_lower_parameter_messages(call, message):
    with pytest.raises(fam.DegenerateParameterError, match=f"^{re.escape(message)}$"):
        call()


# -- the integer kernel against the Fraction kernel it replaced --------------

def fraction_terminating_sum(n, uppers, lowers):
    """The kernel summed in Fraction arithmetic, kept as the reference: prefix
    products of the upper parameters, suffix products of the lower tails,
    and a division by k! at every term."""
    tails = [Fraction(1)] * (n + 1)
    for k in range(n - 1, -1, -1):
        tail = tails[k + 1]
        for low in lowers:
            tail = tail * (low + k)
        tails[k] = tail
    total = tails[0]
    num = Fraction(1)
    kfact = 1
    for k in range(1, n + 1):
        for up in uppers:
            num = num * (up + (k - 1))
        if not num:
            break
        kfact *= k
        total = total + num * tails[k] / kfact
    return total


def kernel_sum(n, uppers, lowers):
    """The integer kernel as a ``_Factor`` reads it: the dot product of the
    upper and lower vectors, over the product of their denominators."""
    hden, heads = fam._head_vector(n, uppers)
    tden, tails = fam._tail_vector(n, lowers)
    return from_parts(hden * tden, *gdot(zip(heads, tails)))


# perfbench draws each parameter as a default plus k/p for these primes, and
# its CLI grids are offset by 1/7 + r/101, a denominator of 707
BENCH_PRIMES = (13, 17, 19, 23, 29, 31)


def draw_kernel_value(rng, kind):
    if kind == "real":
        return rnd_fraction(rng)
    if kind == "int":
        return rng.randint(-6, 6)
    if kind == "zero-imag":
        return GaussianRational(rnd_fraction(rng), 0)
    if kind == "gaussian":
        return rnd_gauss(rng)
    if kind == "height":
        if rng.random() < 0.5:
            den = 1
            for p in rng.sample(BENCH_PRIMES, rng.randint(1, 4)):
                den *= p
            return Fraction(rng.randint(-9 * den, 9 * den), den)
        return rng.randint(-3, 9) + Fraction(1, 7) + Fraction(rng.randint(1, 22), 101)
    raise ValueError(kind)  # pragma: no cover


def draw_kernel_args(rng, n, kinds):
    """(uppers, lowers) with the primaries' -n first, one to four upper and
    one to three lower parameters drawn from ``kinds``; "pair" puts a
    conjugate pair e +- iv among the uppers, the lowers or both, as the
    couplings pass them."""
    def value():
        kind = rng.choice(kinds)
        if kind == "pair":
            kind = "height" if rng.random() < 0.5 else "real"
        return draw_kernel_value(rng, kind)

    uppers = [-n] + [value() for _ in range(rng.randint(0, 3))]
    lowers = [value() for _ in range(rng.randint(1, 3))]
    if "pair" in kinds:
        e, v = value(), value()
        if rng.random() < 0.7:
            uppers += fam._pair(e, v)
        if rng.random() < 0.7:
            lowers = [lowers[0] + e, *fam._pair(e, v)]
    return uppers, lowers


KERNEL_DRAWS = {
    "real": ("real",),
    "int": ("int", "real"),
    "zero-imag": ("zero-imag", "real", "int"),
    "gaussian": ("gaussian", "real", "int"),
    "pair": ("pair",),
    "height": ("height",),
    "height-pair": ("height", "pair"),
}


def assert_same_value_and_type(new, old, context):
    old = demote(old)
    assert new == old, context
    assert type(new) is type(old), context
    if isinstance(new, GaussianRational):
        assert type(new.re) is Fraction and type(new.im) is Fraction, context


@pytest.mark.parametrize("draw", sorted(KERNEL_DRAWS))
def test_integer_kernel_matches_fraction_kernel(draw):
    rng = random.Random(f"kernel-{draw}")
    for n in range(9):
        for _ in range(12):
            uppers, lowers = draw_kernel_args(rng, n, KERNEL_DRAWS[draw])
            assert_same_value_and_type(
                kernel_sum(n, uppers, lowers),
                fraction_terminating_sum(n, uppers, lowers),
                (n, uppers, lowers),
            )


@pytest.mark.parametrize("zero", [0, Fraction(0), GaussianRational(0, 0)],
                         ids=["int", "fraction", "gaussian"])
def test_integer_kernel_stops_at_first_vanishing_upper_product(zero):
    """An upper parameter -j vanishes at shift j: the prefix products end at
    the first vanishing one, and the value is still the reference's."""
    rng = random.Random(f"stop-{type(zero).__name__}")
    for n in range(1, 9):
        for j in range(n):
            uppers, lowers = draw_kernel_args(rng, n, ("height", "pair"))
            uppers.insert(rng.randint(1, len(uppers)), zero - j)
            assert_same_value_and_type(
                kernel_sum(n, uppers, lowers),
                fraction_terminating_sum(n, uppers, lowers),
                (n, uppers, lowers),
            )
            den, parts = integer_parts(uppers)
            heads = fam._gaussian_products(parts, den, range(n))
            assert heads[-1] == (0, 0)
            # a drawn upper may be a nonpositive integer as well
            stop = min(-demote(u) for u in uppers
                       if imag_part(u) == 0 and demote(u).denominator == 1 and demote(u) <= 0)
            assert stop <= j and len(heads) == stop + 2 and (0, 0) not in heads[:-1], (n, j, uppers)


def test_integer_kernel_at_a_vanishing_lower_tail():
    # a lower parameter -j makes every tail from shift j down vanish; the
    # primaries reject it first, but the kernel still sums it exactly
    rng = random.Random(61)
    for n in range(1, 9):
        for j in range(n):
            uppers, lowers = draw_kernel_args(rng, n, ("real", "pair"))
            lowers.append(Fraction(-j))
            assert_same_value_and_type(
                kernel_sum(n, uppers, lowers),
                fraction_terminating_sum(n, uppers, lowers),
                (n, uppers, lowers),
            )


def test_primaries_match_series_oracles_at_benchmark_heights():
    """Primaries at perfbench-like parameters: the four factors through the
    family couplings at drawn parameters and 707-offset grid points."""
    rng = random.Random(67)
    checked = 0
    for name in fam.ALL_FAMILIES:
        spec = fam.FamilySpec(name)
        params = {k: v + Fraction(rng.randint(1, p - 1), p)
                  for (k, v), p in zip(spec.params.items(), BENCH_PRIMES)}
        spec = fam.FamilySpec(name, params)
        for _ in range(4):
            label = tuple(rng.randint(0, 4) for _ in range(spec.nvars))
            point = tuple(draw_kernel_value(rng, "height") for _ in range(spec.nvars))
            for kind, n, args in fam._factors(name, spec.params, label, point):
                if not n:
                    continue
                primary = getattr(fam, f"{kind}_uni")
                value = primary(n, *args)
                assert value == getattr(fam, f"{kind}_uni_oracle")(n, *args), (name, n, args)
                assert type(value) is (GaussianRational if imag_part(value) else Fraction)
                checked += 1
    assert checked >= 40


# -- the couplings against the spelled-out factor calls they replaced --------

def reference_factors(family, p, label, point):
    """Each family's factor calls (kind, n, args) with every part of every
    coupling built at the point, kept as the reference for ``_couplings``,
    which builds the label-only parts once per label."""
    if family == fam.RACAH:
        (n, m), (s, t) = label, point
        return (
            ("racah", n, (p["beta1"] - p["beta0"] - 1, p["beta2"] - p["beta1"] - 1,
                          -t - 1, p["beta1"] + t, s)),
            ("racah", m, (2 * n + p["beta2"] - p["beta0"] - 1, p["beta3"] - p["beta2"] - 1,
                          n - p["N"] - 1, n + p["beta2"] + p["N"], t - n)),
        )
    if family == fam.RACAH_BAR:
        (n, m), (s, t) = label, point
        return (
            ("racah", n, (2 * m - p["beta1"] + p["beta3"] - 1, p["beta1"] - p["beta0"] - 1,
                          m - p["N"] - 1, m - p["N"] - p["beta1"], p["N"] - m - s)),
            ("racah", m, (p["beta3"] - p["beta2"] - 1, p["beta2"] - p["beta1"] - 1,
                          s - p["N"] - 1, -p["beta2"] - p["N"] - s, p["N"] - t)),
        )
    if family == fam.WILSON:
        (n, m), (x, y) = label, point
        return (
            ("wilson", n, (p["a"], p["b"], *fam._pair(p["e2"], y), x)),
            ("wilson", m, (n + p["a"] + p["e2"], n + p["b"] + p["e2"], p["c"], p["d"], y)),
        )
    if family == fam.WILSON_BAR:
        (n, m), (x, y) = label, point
        return (
            ("wilson", n, (m + p["c"] + p["e2"], m + p["d"] + p["e2"], p["a"], p["b"], x)),
            ("wilson", m, (p["c"], p["d"], *fam._pair(p["e2"], x), y)),
        )
    if family == fam.CDH:
        (n, m), (x, y) = label, point
        return (
            ("cdh", n, (p["a"], *fam._pair(p["e2"], y), x)),
            ("cdh", m, (n + p["a"] + p["e2"], p["b"], p["c"], y)),
        )
    if family == fam.CH:
        (n, m), (x, y) = label, point
        return (
            ("ch", n, (p["a1"], p["b1"], *fam._pair(p["e2"], y)[::-1], x)),
            ("ch", m, (n + p["a1"] + p["e2"], n + p["b1"] + p["e2"], p["b3"], p["a3"], y)),
        )
    if family == fam.CH_BAR:
        (n, m), (x, y) = label, point
        return (
            ("ch", n, (m + p["e2"] + p["b3"], m + p["e2"] + p["a3"], p["a1"], p["b1"], x)),
            ("ch", m, (p["b3"], p["a3"], *fam._pair(p["e2"], x)[::-1], y)),
        )
    (n, m, r), (x, y, z) = label, point
    return (
        ("ch", n, (p["a1"], p["b1"], *fam._pair(p["e2"], y)[::-1], x)),
        ("ch", m, (n + p["a1"] + p["e2"], n + p["b1"] + p["e2"],
                   *fam._pair(p["e3"], z)[::-1], y)),
        ("ch", r, (n + m + p["a1"] + p["e2"] + p["e3"], n + m + p["b1"] + p["e2"] + p["e3"],
                   p["b4"], p["a4"], z)),
    )


def assert_same_exact(new, old, context):
    """Equal, and of the same type down to the parts of a Gaussian."""
    assert new == old and type(new) is type(old), context
    if isinstance(new, GaussianRational):
        assert (type(new.re), type(new.im)) == (type(old.re), type(old.im)), context


@pytest.mark.parametrize("heights", ["default", "bench"])
def test_couplings_match_the_spelled_out_factors(heights):
    """``_factors`` over ``_couplings`` returns the reference's calls, values
    and types included, for seeded labels with entries 0..4 at real points
    and at their Gaussian stencil neighbours s +- i; the oracle shares the
    couplings, so only this test can catch a slip in one."""
    rng = random.Random(f"couplings-{heights}")
    checked = 0
    for name in fam.ALL_FAMILIES:
        spec = fam.FamilySpec(name)
        if heights == "bench":
            spec = fam.FamilySpec(name, {k: v + Fraction(rng.randint(1, p - 1), p)
                                         for (k, v), p in zip(spec.params.items(), BENCH_PRIMES)})
        for _ in range(12):
            label = tuple(rng.randint(0, 4) for _ in range(spec.nvars))
            real = tuple(draw_kernel_value(rng, "height") for _ in range(spec.nvars))
            offsets = tuple(rng.choice((-1, 0, 1)) for _ in range(spec.nvars))
            neighbour = tuple(s + o * GaussianRational(0, 1) for s, o in zip(real, offsets))
            for point in (real, neighbour):
                new = fam._factors(name, spec.params, label, point)
                old = reference_factors(name, spec.params, label, point)
                context = (name, label, point)
                assert [(kind, n) for kind, n, _ in new] == [(kind, n) for kind, n, _ in old]
                for (_, n, args), (_, _, ref) in zip(new, old):
                    assert type(n) is int and len(args) == len(ref), context
                    for value, expected in zip(args, ref):
                        assert_same_exact(value, expected, context)
                checked += 1
    assert checked == 2 * 12 * len(fam.ALL_FAMILIES)


def test_family_caches_stay_within_their_bound():
    """Past FAMILY_CACHE_SIZE entries the caches evict: ``_eval_cached`` and
    a primary hold exactly that many values, one member exactly that many
    vectors per side, and an evicted value or vector computes again to the
    same value."""
    bound = fam.FAMILY_CACHE_SIZE
    spec = fam.FamilySpec(fam.RACAH)
    # Racah (1, 0) is one factor: its uppers read s and its lowers t
    points = [(Fraction(k, 7), Fraction(k + 1, 11)) for k in range(bound + 50)]
    caches = (fam._eval_cached, fam.racah_uni)
    for cache in caches:
        cache.cache_clear()

    def sizes():
        return ([cache.cache_info().currsize for cache in caches]
                + [len(factor.heads), len(factor.tails)])

    try:
        first, vectors = [], []
        for i, point in enumerate(points):
            first.append(fam.eval_family(spec, (1, 0), point))
            _, n, args = fam._factors(spec.family, spec.params, (1, 0), point)[0]
            assert fam.racah_uni(n, *args) == first[-1]
            (factor,) = spec._members[(1, 0)]
            if i < 50:
                vectors.append((factor.head(point[0]), factor.tail(point[1])))
            if i % 97 == 0 or i >= bound - 2:
                assert max(sizes()) <= bound, i
        assert sizes() == [bound] * 4
        # the oldest go first
        assert not any(s in factor.heads or t in factor.tails for s, t in points[:50])
        misses = fam._eval_cached.cache_info().misses
        for point, value, (head, tail) in zip(points[:50], first, vectors):  # evicted: recomputed
            assert fam.eval_family(spec, (1, 0), point) == value
            assert fam.eval_family_oracle(spec, (1, 0), point) == value
            assert factor.heads[point[0]] == head and factor.tails[point[1]] == tail
        assert fam._eval_cached.cache_info().misses == misses + 50
        assert sizes() == [bound] * 4
    finally:
        for cache in caches:
            cache.cache_clear()


# -- bivariate / trivariate evaluation ---------------------------------------

def test_all_families_are_one_at_zero_label():
    for name in fam.ALL_FAMILIES:
        spec = fam.FamilySpec(name)
        pt = (Fraction(8, 7),) * spec.nvars
        assert fam.eval_family(spec, (0,) * spec.nvars, pt) == 1


def test_eval_agrees_with_univariate_oracles():
    rng = random.Random(47)
    spec = fam.FamilySpec(fam.RACAH)
    p = spec.params
    for _ in range(5):
        n, m = rng.randint(0, 2), rng.randint(0, 2)
        s, t = rnd_fraction(rng, 1, 9, 7), rnd_fraction(rng, 1, 9, 7)
        direct = fam.racah_uni_oracle(
            n, p["beta1"] - p["beta0"] - 1, p["beta2"] - p["beta1"] - 1, -t - 1, p["beta1"] + t, s
        ) * fam.racah_uni_oracle(
            m, 2 * n + p["beta2"] - p["beta0"] - 1, p["beta3"] - p["beta2"] - 1,
            n - p["N"] - 1, n + p["beta2"] + p["N"], t - n,
        )
        assert fam.eval_family(spec, (n, m), (s, t)) == direct


def test_every_family_agrees_with_brute_force_oracle():
    rng = random.Random(59)
    for name in fam.ALL_FAMILIES:
        spec = fam.FamilySpec(name)
        checked = 0
        while checked < 5:
            label = tuple(rng.randint(0, 2) for _ in range(spec.nvars))
            point = tuple(rnd_fraction(rng, 1, 9, 7) for _ in range(spec.nvars))
            primary = fam.eval_family(spec, label, point)
            oracle = fam.eval_family_oracle(spec, label, point)
            assert primary == oracle, (name, label, point)
            checked += 1


def test_every_family_agrees_with_oracle_at_stencil_neighbours():
    """The stencils sample members at s +- i (Wilson and linear lattices) or
    s +- 1 (Racah); the couplings then carry Gaussian arguments."""
    for name in fam.ALL_FAMILIES:
        spec = fam.FamilySpec(name)
        step = 1 if fam.base_family(name) == fam.RACAH else GaussianRational(0, 1)
        base = (Fraction(8, 7), Fraction(16, 7), Fraction(15, 7))[:spec.nvars]
        labels = [lbl for lbl in product(range(3), repeat=spec.nvars) if sum(lbl) <= 2]
        for offsets in product((-1, 0, 1), repeat=spec.nvars):
            point = tuple(s + o * step for s, o in zip(base, offsets))
            for label in labels:
                primary = fam.eval_family(spec, label, point)
                assert primary == fam.eval_family_oracle(spec, label, point), (name, label, point)


PRIMARY_ROUTE = {kind: getattr(fam, f"{kind}_uni") for kind in ("racah", "wilson", "cdh", "ch")}


def neighbourhood(base):
    """The point and its +-1 and +-i neighbours in each coordinate."""
    out = [base]
    for j, step in product(range(len(base)), (1, -1, GaussianRational(0, 1), GaussianRational(0, -1))):
        out.append(base[:j] + (base[j] + step,) + base[j + 1:])
    return out


def test_member_vectors_match_the_primary_route_and_the_oracle():
    """Every label of total degree <= 4 of every family, at drawn real points
    and their +-1 and +-i neighbours: the member path equals the per-point
    route through the primaries and the series oracle, types included.  The
    neighbours share coordinates, so the stored vectors are reused."""
    rng = random.Random(71)
    for name in fam.ALL_FAMILIES:
        spec = fam.FamilySpec(name)
        bases = 1 if name == fam.CH_TRI else 2
        points = [q for _ in range(bases)
                  for q in neighbourhood(tuple(rnd_fraction(rng, 1, 40, 7) + Fraction(1, 13)
                                               for _ in range(spec.nvars)))]
        labels = [lbl for lbl in product(range(5), repeat=spec.nvars) if sum(lbl) <= 4]
        for label in labels:
            for point in points:
                value = fam.eval_family(spec, label, point)
                context = (name, label, point)
                factors = fam._factors(name, spec.params, label, point)
                assert_same_exact(value, fam._multiply(PRIMARY_ROUTE, factors), context)
                assert_same_exact(value, fam.eval_family_oracle(spec, label, point), context)
            for factor in spec._members[label]:
                assert len(factor.heads) == len({q[factor.own] for q in points}) < len(points)
                coupled = {None if factor.coupled is None else q[factor.coupled] for q in points}
                assert len(factor.tails) == len(coupled) < len(points)


@pytest.mark.parametrize("name", fam.ALL_FAMILIES)
def test_upper_parameters_do_not_read_the_coupled_coordinate(name):
    """Checked, not assumed: every upper parameter is affine in the point,
    so uppers equal at two distinct coupled values do not depend on it; the
    lowers, likewise, at two distinct own values."""
    spec = fam.FamilySpec(name)
    v1, v2 = Fraction(8, 7), Fraction(3, 11) + GaussianRational(0, 2)
    w1, w2 = Fraction(16, 7), Fraction(-5, 13) + GaussianRational(0, 1)
    label = tuple(range(2, 2 + spec.nvars))
    couplings = fam._couplings(name, spec.params, label)
    assert {own for _, _, own, _, _ in couplings} == set(range(spec.nvars))
    for kind, n, own, coupled, args in couplings:
        uppers, lowers = fam._KINDS[kind]
        assert coupled != own
        ws = (None, None) if coupled is None else (w1, w2)
        for v in (v1, v2):
            assert uppers(n, *args(v, ws[0])) == uppers(n, *args(v, ws[1])), (name, n)
        for w in ws:
            assert lowers(*args(v1, w)) == lowers(*args(v2, w)), (name, n)
        assert uppers(n, *args(v1, ws[0])) != uppers(n, *args(v2, ws[0])), (name, n)


DEGENERATE_MEMBERS = [
    # gamma + 1 = -t
    (fam.RACAH, (2, 0), (Fraction(8, 7), Fraction(1)),
     "denominator parameter gamma+1 = -1 hits zero at shift 1"),
    # gamma + 1 = s - N
    (fam.RACAH_BAR, (0, 2), (Fraction(17, 2), Fraction(8, 7)),
     "denominator parameter gamma+1 = 0 hits zero at shift 0"),
    # a + c = a + e2 + iy
    (fam.WILSON, (1, 1), (Fraction(8, 7), GaussianRational(0, Fraction(9, 10))),
     "denominator parameter a+c = 0 hits zero at shift 0"),
    # a + b = a + e2 + iy
    (fam.CDH, (2, 0), (Fraction(8, 7), GaussianRational(0, Fraction(19, 10))),
     "denominator parameter a+b = -1 hits zero at shift 1"),
    # a + d = a1 + e2 + iy
    (fam.CH, (3, 0), (Fraction(8, 7), GaussianRational(0, Fraction(55, 21))),
     "denominator parameter a+d = -2 hits zero at shift 2"),
]


@pytest.mark.parametrize("name, label, point, message", DEGENERATE_MEMBERS,
                         ids=[d[0] for d in DEGENERATE_MEMBERS])
def test_a_degenerate_coupled_coordinate_raises_on_every_call(name, label, point, message):
    """A coupled coordinate that makes a lower Pochhammer vanish raises the
    primary route's message, on every call: its vector is never kept."""
    spec = fam.FamilySpec(name)
    with pytest.raises(fam.DegenerateParameterError, match=f"^{re.escape(message)}$"):
        fam._multiply(PRIMARY_ROUTE, fam._factors(name, spec.params, label, point))
    for _ in range(2):
        with pytest.raises(fam.DegenerateParameterError, match=f"^{re.escape(message)}$"):
            fam.eval_family(spec, label, point)
        assert all(point[f.coupled] not in f.tails for f in spec._members[label]
                   if f.coupled is not None)
    # a coupled coordinate one step away is fine, and is kept
    moved = (point[0] + 1,) + point[1:] if name == fam.RACAH_BAR else point[:1] + (point[1] + 1,)
    assert fam.eval_family(spec, label, moved) == fam.eval_family_oracle(spec, label, moved)
    assert all(moved[f.coupled] in f.tails for f in spec._members[label] if f.coupled is not None)


def test_zero_label_is_one_without_a_primary_call(monkeypatch):
    """A zero label builds no factor, and a degree-1 label builds one factor
    holding only the vectors of its point's own and coupled coordinates;
    neither calls a primary."""
    calls = []
    for kind in ("racah", "wilson", "cdh", "ch"):
        original = getattr(fam, f"{kind}_uni")

        def counted(*args, kind=kind, original=original):
            calls.append((kind, args[0]))
            return original(*args)

        monkeypatch.setattr(fam, f"{kind}_uni", counted)
    fam._eval_cached.cache_clear()
    for name in fam.ALL_FAMILIES:
        spec = fam.FamilySpec(name)
        point = (Fraction(8, 7), Fraction(16, 7), Fraction(15, 7))[:spec.nvars]
        zero = (0,) * spec.nvars
        value = fam.eval_family(spec, zero, point)
        assert value == 1 and type(value) is Fraction, name
        assert spec._members[zero] == [], name
        one = (1,) + zero[1:]
        fam.eval_family(spec, one, point)
        (factor,) = spec._members[one]
        assert (factor.n, factor.own) == (1, 0), name
        coupled = None if factor.coupled is None else point[factor.coupled]
        assert list(factor.heads) == [point[0]] and list(factor.tails) == [coupled], name
        assert calls == [], (name, calls)


def test_bivariate_total_degree_by_interpolation():
    spec = fam.FamilySpec(fam.RACAH)
    lx, ly = spec.lattices()
    n, m = 2, 1
    svals = lo.grid_points(lx, n + m + 2)
    tvals = lo.grid_points(ly, n + m + 2, origin=2)
    from quadlattice.fbasis import interpolate_bivariate

    xn = [lo.lattice_value(lx, s) for s in svals]
    yn = [lo.lattice_value(ly, t) for t in tvals]
    poly = interpolate_bivariate(
        xn, yn, lambda i, j: fam.eval_family(spec, (n, m), (svals[i], tvals[j]))
    )
    assert poly.total_degree() == n + m


def test_realness_asserted_for_wilson_and_cdh():
    for name in (fam.WILSON, fam.WILSON_BAR, fam.CDH):
        spec = fam.FamilySpec(name)
        val = fam.eval_family(spec, (2, 1), (Fraction(8, 7), Fraction(9, 7)))
        assert not isinstance(val, GaussianRational)


def test_ch_values_are_gaussian_in_general():
    spec = fam.FamilySpec(fam.CH)
    val = fam.eval_family(spec, (1, 0), (Fraction(8, 7), Fraction(9, 7)))
    assert imag_part(val) != 0


def test_label_and_point_arity_errors():
    spec = fam.FamilySpec(fam.RACAH)
    with pytest.raises(ValueError):
        fam.eval_family(spec, (1, 1, 1), (Fraction(1), Fraction(2)))
    with pytest.raises(ValueError):
        fam.eval_family(spec, (1, 1), (Fraction(1),))
    with pytest.raises(ValueError):
        fam.eval_family(spec, (-1, 0), (Fraction(1), Fraction(2)))
    with pytest.raises(ValueError):
        fam.FamilySpec("no-such-family")
    with pytest.raises(ValueError):
        fam.FamilySpec(fam.RACAH, params={"zeta": Fraction(1)})


def test_default_params_cover_every_parameter_name():
    # a spec starts from its family's defaults, so it is always complete
    for name in fam.ALL_FAMILIES:
        assert set(fam.DEFAULT_PARAMS[name]) == set(fam.PARAM_NAMES[name]), name
        assert fam.FamilySpec(name).key()[1:] == tuple(
            fam.DEFAULT_PARAMS[name][k] for k in fam.PARAM_NAMES[name]
        )


def test_equal_specs_share_one_cached_member():
    fam._eval_cached.cache_clear()
    a = fam.FamilySpec(fam.WILSON)
    b = fam.FamilySpec(fam.WILSON, params={"e2": Fraction(2, 5)})
    assert a is not b and a == b
    point = (Fraction(8, 7), Fraction(16, 7))
    first = fam.eval_family(a, (1, 1), point)
    assert fam.eval_family(b, (1, 1), point) == first
    assert fam.family_function(b, (1, 1))(point) == first
    info = fam._eval_cached.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 2, 1)


def test_a_value_is_one_family_grid_read_and_ch_uni_turns_through_its_factor(monkeypatch):
    """An uncached value is one call of ``family_grid`` on a one-point grid,
    and a hit of ``_eval_cached`` makes none; ``ch_uni`` applies i^n only
    through its ``_Factor``, and n = 0..7 takes each of the four turns
    twice, against the oracle in value and type."""
    calls = []
    original = fam.family_grid

    def counted(spec, labels, axes):
        calls.append((labels, axes))
        return original(spec, labels, axes)

    monkeypatch.setattr(fam, "family_grid", counted)
    fam._eval_cached.cache_clear()
    spec = fam.FamilySpec(fam.CH)
    point = (Fraction(8, 7), Fraction(16, 7))
    value = fam.eval_family(spec, (2, 1), point)
    assert calls == [([(2, 1)], [[point[0]], [point[1]]])]
    assert fam.eval_family(spec, (2, 1), point) == value
    assert len(calls) == 1
    assert_same_value_and_type(value, fam.eval_family_oracle(spec, (2, 1), point), point)
    args = (Fraction(1, 3), Fraction(5, 6), GaussianRational(Fraction(2, 7), Fraction(-9, 7)),
            GaussianRational(Fraction(2, 7), Fraction(9, 7)), Fraction(8, 7))
    fam.ch_uni.cache_clear()
    for n in range(8):
        assert_same_value_and_type(fam.ch_uni(n, *args), fam.ch_uni_oracle(n, *args), n)
    # real arguments give a real sum, so i^n leaves it real at even n and
    # imaginary at odd n
    real = (Fraction(1, 3), Fraction(5, 6), Fraction(4, 9), Fraction(3, 5), Fraction(0))
    for n in range(8):
        value = fam.ch_uni(n, *real)
        assert_same_value_and_type(value, fam.ch_uni_oracle(n, *real), n)
        assert value and (type(value) is Fraction) == (n % 2 == 0), n


class CountingMembers(dict):
    """A spec's member store that records every member it is given."""

    def __init__(self):
        super().__init__()
        self.built = []

    def __setitem__(self, label, factors):
        self.built.append(label)
        super().__setitem__(label, factors)


def test_a_sweep_builds_each_member_once_per_label():
    from quadlattice.pdeverify import verify_table

    spec = fam.FamilySpec(fam.WILSON)
    members = CountingMembers()
    object.__setattr__(spec, "_members", members)
    fam._eval_cached.cache_clear()
    reports = verify_table(spec, 2)
    assert all(r["pass"] for r in reports)
    labels = sorted(tuple(r["label"]) for r in reports)
    assert sorted(members.built) == labels and len(labels) == 6
    # every factor of nonzero degree, and only those
    assert all(len(members[lbl]) == sum(v > 0 for v in lbl) for lbl in labels)


def test_a_degree_zero_factor_builds_no_arguments(monkeypatch):
    """Wilson at (0, 1): the first factor has degree 0, so the member holds
    only the second and its pair e2 +- iy is never built; only the second
    factor's own upper pair a' +- iy is."""
    calls = []
    original = fam._pair

    def counted(e, v):
        calls.append((e, v))
        return original(e, v)

    monkeypatch.setattr(fam, "_pair", counted)
    fam._eval_cached.cache_clear()
    spec = fam.FamilySpec(fam.WILSON)
    p, point = spec.params, (Fraction(8, 7), Fraction(16, 7))
    value = fam.eval_family(spec, (0, 1), point)
    assert [(f.n, f.own) for f in spec._members[(0, 1)]] == [(1, 1)]
    assert calls == [(p["a"] + p["e2"], point[1])]
    # the oracle keeps the degree-0 factor, and with it the pair e2 +- iy
    assert fam.eval_family_oracle(spec, (0, 1), point) == value
    assert calls[1:] == [(p["e2"], point[1])]


def test_a_spec_is_immutable_and_hashes_as_its_key():
    spec = fam.FamilySpec(fam.WILSON)
    with pytest.raises(TypeError):
        spec.params["a"] = Fraction(1)
    with pytest.raises(AttributeError):
        spec.family = fam.CDH
    assert hash(spec) == hash(spec.key())
    assert spec.shifted(a=1) == fam.FamilySpec(fam.WILSON, {"a": Fraction(3, 2)})
    assert spec.params["a"] == Fraction(1, 2)


# -- derivative ladders -------------------------------------------------------

def test_all_printed_ladders_vanish():
    for name in fam.LADDER_DIRECTION:
        spec = fam.FamilySpec(name)
        for label in [(1, 0), (0, 1), (1, 1), (2, 1)]:
            for pt in PTS2:
                assert fam.derivative_ladder_check(spec, label, pt) == 0


def test_every_printed_ladder_has_a_direction():
    assert set(fam.LADDERS) == set(fam.LADDER_DIRECTION)
    assert fam.CH_TRI not in fam.LADDERS
    with pytest.raises(ValueError, match="no printed ladder for family ch-tri"):
        fam.ladder_parts(fam.FamilySpec(fam.CH_TRI), (1, 0, 0))


def test_zero_order_ladder_is_trivially_zero():
    spec = fam.FamilySpec(fam.RACAH)
    assert fam.derivative_ladder_check(spec, (0, 2), PTS2[0]) == 0
    bar = fam.FamilySpec(fam.RACAH_BAR)
    assert fam.derivative_ladder_check(bar, (2, 0), PTS2[0]) == 0


def test_univariate_wilson_ladder():
    a, b, c, d = Fraction(1, 2), Fraction(3, 4), Fraction(5, 4), Fraction(7, 6)
    spec = lo.wilson_square()
    half = Fraction(1, 2)
    for n in range(1, 4):
        for x in (Fraction(8, 7), Fraction(15, 7)):
            lhs = lo.apply_D(spec, lambda v: fam.wilson_uni(n, a, b, c, d, v), x)
            rhs = -n * (n + a + b + c + d - 1) * fam.wilson_uni(
                n - 1, a + half, b + half, c + half, d + half, x
            )
            assert lhs == rhs


def test_univariate_ladder_and_second_order_equation():
    a, b, g, d = RACAH_ARGS
    eta = lo.quadratic(g + d + 1)
    for n in range(1, 4):
        for s in (Fraction(8, 7), Fraction(15, 7)):
            lhs = lo.apply_D(eta, lambda v: fam.racah_uni(n, a, b, g, d, v), s)
            rhs = n * (n + a + b + 1) * fam.racah_uni(n - 1, a + 1, b + 1, g + 1, d, s - Fraction(1, 2))
            assert lhs == rhs
    for n in range(4):
        lam = n * (a + b + n + 1)
        for s in (Fraction(8, 7), Fraction(15, 7)):
            et = s * (s + g + d + 1)
            phi = (
                -et * et
                + Fraction(1, 2)
                * (-a * (2 * b + d + g + 3) + b * (d - g - 3) - 2 * (d * g + d + g + 2))
                * et
                - Fraction(1, 2) * (a + 1) * (g + 1) * (b + d + 1) * (d + g + 1)
            )
            tau = -(a + b + 2) * et - (a + 1) * (g + 1) * (b + d + 1)
            rn = lambda v: fam.racah_uni(n, a, b, g, d, v)
            d2 = lo.apply_D(eta, lambda v: lo.apply_D(eta, rn, v), s)
            sd = lo.apply_S(eta, lambda v: lo.apply_D(eta, rn, v), s)
            assert phi * d2 + tau * sd + lam * rn(s) == 0


# -- parameter maps ------------------------------------------------------------

def test_racah_to_wilson_substitution_is_exact():
    wspec = fam.FamilySpec(fam.WILSON)
    betas, point_map = fam.racah_to_wilson_map(**wspec.params)
    rspec = fam.FamilySpec(fam.RACAH, params=betas)
    for label in [(1, 0), (0, 1), (1, 1), (2, 1)]:
        for x, y in PTS2[:2]:
            st = point_map(x, y)
            racah_val = fam.family_function(rspec, label)(st)
            assert demote(racah_val) == fam.eval_family(wspec, label, (x, y))


def test_spec_json_echo():
    spec = fam.FamilySpec(fam.CDH)
    blob = spec.to_json()
    assert blob["family"] == "cdh"
    assert blob["params"]["e2"] == "2/5"


# -- the grid axes a spec keeps -----------------------------------------------

def _axes_or_error(build, count):
    try:
        return build(count)
    except lo.SingularPointError as err:
        return ("raised", str(err))


@pytest.mark.parametrize("family", [fam.RACAH, fam.WILSON, fam.CH, fam.CH_TRI])
@pytest.mark.parametrize("offset", [Fraction(1, 7), Fraction(1, 2)])
def test_kept_axes_are_the_grid_axes(family, offset):
    # counts asked in ascending, descending and repeated order are read off
    # one kept prefix per axis, equal to freshly built axes every time
    spec = fam.FamilySpec(family)
    for count in [1, 2, 4, 7, 6, 3, 0, 3, 3, 8, 5, 8]:
        assert spec.grid_axes(count, offset) == lo.grid_axes(spec.lattices(), count, offset), count
    assert spec.grid_axes(4) == lo.grid_axes(spec.lattices(), 4)


@pytest.mark.parametrize("edge", [181, 182])
def test_kept_axes_raise_at_the_grid_bound(monkeypatch, edge):
    # with the candidates k = 1, 2, edge, edge + 1, edge + 2 the only
    # nonsingular ones, axis 1 (from origin 2) finds its second point at
    # k = edge, and grid_points examines k only while k + 1 <= origin +
    # 40 * count + 100: two points per axis raise past that bound, whether
    # the axis extends to them or a larger count kept them already, and six
    # points raise once axis 0's five run out
    offset = Fraction(1, 7)
    accepted = {k + offset for k in (1, 2, edge, edge + 1, edge + 2)}
    monkeypatch.setattr(lo, "_nonsingular", lambda lattice, s: s in accepted)
    raised = ("raised", "could not assemble a nonsingular grid")
    two = raised if edge + 1 > 2 + 40 * 2 + 100 else None
    spec = fam.FamilySpec(fam.CH)
    fresh = lambda count: lo.grid_axes(spec.lattices(), count, offset)
    for build in (fresh, lambda count: fam.FamilySpec(fam.CH).grid_axes(count, offset)):
        assert (_axes_or_error(build, 2) == raised) == (two == raised)
    kept = lambda count: spec.grid_axes(count, offset)
    for count, outcome in [(3, None), (2, two), (1, None), (6, raised), (4, None), (2, two)]:
        want = _axes_or_error(fresh, count)
        assert _axes_or_error(kept, count) == want, count
        assert (want == raised) == (outcome == raised), count
