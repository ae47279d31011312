import math
import random
import re
from fractions import Fraction

import pytest

from quadlattice import latticeops as lo
from quadlattice.exactfield import GaussianRational, from_parts, imag_part
from quadlattice.fbasis import MPoly, interpolate_univariate, poly_D, poly_S

import basis_reference


QUAD = lo.quadratic(Fraction(2, 3))
WIL = lo.wilson_square()
LIN = lo.linear()


def random_poly(rng, degree, nvars=1):
    coeffs = {}
    for _ in range(degree + 2):
        exps = tuple(rng.randint(0, degree) for _ in range(nvars))
        if sum(exps) <= degree:
            coeffs[exps] = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
    coeffs[(degree,) + (0,) * (nvars - 1)] = Fraction(1)
    return MPoly(nvars, coeffs)


def as_function(p, spec):
    return lambda s: p.eval((lo.lattice_value(spec, s),))


def test_lattice_values():
    assert lo.lattice_value(lo.quadratic(2), Fraction(1)) == 3
    assert lo.lattice_value(lo.quadratic(Fraction(5, 7)), Fraction(0)) == 0
    assert lo.lattice_value(WIL, Fraction(3)) == 9
    assert lo.lattice_value(LIN, Fraction(3, 2)) == Fraction(3, 2)


def test_basis_nodes():
    # f_k(beta) = ((2k+1)^2 - 4 beta^2) / 16 on the quadratic lattice,
    # -f_k(0) on the Wilson lattice, 0 (plain monomials) on the linear one
    for k in range(4):
        assert QUAD.node(k) == (Fraction((2 * k + 1) ** 2) - 4 * QUAD.beta ** 2) / 16
        assert QUAD.node(k) == lo.structure_scalars(k, QUAD.beta)[0]
        assert WIL.node(k) == -Fraction((2 * k + 1) ** 2, 16)
        assert LIN.node(k) == 0


def test_constants_are_annihilated_and_averaged():
    for spec in (QUAD, WIL, LIN):
        assert lo.apply_D(spec, lambda s: Fraction(5, 3), Fraction(8, 7)) == 0
        assert lo.apply_S(spec, lambda s: Fraction(5, 3), Fraction(8, 7)) == Fraction(5, 3)


def test_quadratic_identity_function():
    f = lambda s: lo.lattice_value(QUAD, s)
    for s in (Fraction(8, 7), Fraction(15, 7), Fraction(-3, 5)):
        assert lo.apply_D(QUAD, f, s) == 1
        assert lo.apply_S(QUAD, f, s) == lo.lattice_value(QUAD, s) + Fraction(1, 4)


def test_linear_identity_function():
    assert lo.apply_S(LIN, lambda x: x, Fraction(3, 2)) == Fraction(3, 2)
    assert lo.apply_D(LIN, lambda x: x, Fraction(3, 2)) == 1


def test_singular_point_raises():
    bad = -QUAD.beta / 2
    with pytest.raises(lo.SingularPointError):
        lo.apply_D(QUAD, lambda s: s, bad)
    with pytest.raises(lo.SingularPointError):
        lo.apply_D(WIL, lambda x: x * x, Fraction(0))


def test_half_step_denominators():
    # x(s + 1/2) - x(s - 1/2) is 2s + beta, 2is and i on the three lattices
    for s in (Fraction(8, 7), Fraction(-3, 5)):
        up, down, inv = lo.half_step(QUAD, s)
        assert (up, down, from_parts(*inv)) == (s + Fraction(1, 2), s - Fraction(1, 2), 1 / (2 * s + QUAD.beta))
        assert from_parts(*lo.half_step(WIL, s)[2]) == 1 / GaussianRational(0, 2 * s)
        assert from_parts(*lo.half_step(LIN, s)[2]) == 1 / GaussianRational(0, 1)


def test_half_step_triples_are_reduced_field_reciprocals():
    # (N, A, B) is the field reciprocal in lowest terms with N > 0, at real
    # and Gaussian points alike, and a vanishing denominator raises the
    # field form's message
    rng = random.Random(43)
    for spec in (QUAD, lo.quadratic(Fraction(-5, 2)), WIL, LIN):
        points = [-spec.beta / 2 if spec.beta is not None else Fraction(0)]
        for _ in range(40):
            re_part = Fraction(rng.randint(-20, 20), rng.randint(1, 9))
            im_part = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
            points += [re_part, GaussianRational(re_part, im_part)]
        for point in points:
            try:
                want = basis_reference.half_step(spec, point)
            except lo.SingularPointError as err:
                with pytest.raises(lo.SingularPointError) as got:
                    lo.half_step(spec, point)
                assert str(got.value) == str(err)
                continue
            up, down, (n, a, b) = lo.half_step(spec, point)
            assert n > 0 and math.gcd(n, a, b) == 1, point
            assert (up, down, from_parts(n, a, b)) == want, point


def test_singular_point_message_is_the_engine_message():
    # apply_D, the stencil weights and the grid filter share one test and
    # one message
    bad = -QUAD.beta / 2
    message = re.escape(f"stencil denominator vanishes at {bad} on {QUAD!r}")
    with pytest.raises(lo.SingularPointError, match=message):
        lo.apply_D(QUAD, lambda s: s, bad)
    with pytest.raises(lo.SingularPointError, match=re.escape(f"vanishes at 0 on {WIL!r}")):
        lo.partial_D(WIL, lambda pt: pt[0] * pt[1], (Fraction(2), Fraction(0)), 1)


def test_grid_points_skip_every_singular_half_step():
    # no D denominator may vanish at s, s +- 1/2 or s +- 1: on x = s(s - 3)
    # that rules out s = 1/2, 1, 3/2, 2, 5/2; on x^2 only s = 0
    assert lo.grid_points(lo.quadratic(-3), 3, offset=Fraction(0)) == [3, 4, 5]
    half = Fraction(1, 2)
    assert lo.grid_points(lo.quadratic(-3), 3, offset=half) == [7 * half, 9 * half, 11 * half]
    assert lo.grid_points(WIL, 3, offset=Fraction(-1)) == [1, 2, 3]
    assert lo.grid_points(LIN, 3, offset=Fraction(0)) == [1, 2, 3]


def test_degree_laws_by_interpolation():
    # D lowers the lattice degree by one, S preserves it
    rng = random.Random(3)
    for spec in (QUAD, WIL, LIN):
        for degree in (1, 2, 3, 4):
            p = random_poly(rng, degree)
            pts = lo.grid_points(spec, degree + 2)
            xs = [lo.lattice_value(spec, s) for s in pts]
            dvals = [lo.apply_D(spec, as_function(p, spec), s) for s in pts]
            svals = [lo.apply_S(spec, as_function(p, spec), s) for s in pts]
            dcoeffs = interpolate_univariate(xs, dvals)
            scoeffs = interpolate_univariate(xs, svals)
            assert all(c == 0 for c in dcoeffs[degree:])
            assert dcoeffs[degree - 1] != 0
            assert scoeffs[degree] != 0


def test_product_rules_exact():
    rng = random.Random(5)
    for spec in (QUAD, WIL, LIN):
        for _ in range(3):
            f = random_poly(rng, rng.randint(1, 4))
            g = random_poly(rng, rng.randint(1, 4))
            fg = f * g
            for s in lo.grid_points(spec, 10):
                ff = as_function(f, spec)
                gg = as_function(g, spec)
                d_fg = lo.apply_D(spec, as_function(fg, spec), s)
                s_fg = lo.apply_S(spec, as_function(fg, spec), s)
                df, sf = lo.apply_D(spec, ff, s), lo.apply_S(spec, ff, s)
                dg, sg = lo.apply_D(spec, gg, s), lo.apply_S(spec, gg, s)
                assert d_fg == sf * dg + df * sg
                # S(fg) = S f S g + w^2 D f D g with w^2 the calculus weight
                (q0, q1), _ = spec.shift_algebra()
                w2 = q0 + q1 * lo.lattice_value(spec, s)
                assert s_fg == sf * sg + w2 * df * dg


def test_composition_laws_pointwise():
    # DS = SD + eps/2 D^2 and S^2 = eps/2 SD + w^2 D^2 + I,
    # with eps = +1 (quadratic), -1 (Wilson), 0 (linear)
    rng = random.Random(9)
    eps = {QUAD: 1, WIL: -1, LIN: 0}
    for spec in (QUAD, WIL, LIN):
        for _ in range(2):
            p = random_poly(rng, 4)
            f = as_function(p, spec)
            for s in lo.grid_points(spec, 4):
                Df = lambda u: lo.apply_D(spec, f, u)
                Sf = lambda u: lo.apply_S(spec, f, u)
                ds = lo.apply_D(spec, Sf, s)
                sd = lo.apply_S(spec, Df, s)
                d2 = lo.apply_D(spec, Df, s)
                s2 = lo.apply_S(spec, Sf, s)
                (q0, q1), _ = spec.shift_algebra()
                w2 = q0 + q1 * lo.lattice_value(spec, s)
                e = eps[spec]
                assert ds == sd + Fraction(e, 2) * d2
                assert s2 == Fraction(e, 2) * sd + w2 * d2 + f(s)


def test_symbolic_operators_match_pointwise():
    rng = random.Random(17)
    for spec in (QUAD, WIL, LIN):
        p = random_poly(rng, 3)
        dsym = poly_D(p, 0, spec)
        ssym = poly_S(p, 0, spec)
        for s in lo.grid_points(spec, 6):
            x = lo.lattice_value(spec, s)
            assert lo.apply_D(spec, as_function(p, spec), s) == dsym.eval((x,))
            assert lo.apply_S(spec, as_function(p, spec), s) == ssym.eval((x,))


def test_complex_shift_realness_is_verified_not_assumed():
    # Wilson/linear operators route through Q(i); on even/real data the
    # results land back in Q
    p = MPoly(1, {(2,): Fraction(3), (0,): Fraction(-1, 2)})
    for spec in (WIL, LIN):
        for s in lo.grid_points(spec, 5):
            val = lo.apply_D(spec, as_function(p, spec), s)
            assert imag_part(val) == 0
            assert not isinstance(val, GaussianRational)


def test_grid_points_avoid_singular_denominators():
    spec = lo.quadratic(Fraction(-33, 7))  # 2s + beta vanishes near small grid
    pts = lo.grid_points(spec, 12)
    assert len(set(lo.lattice_value(spec, s) for s in pts)) == 12
    for s in pts:
        for j in (-1, 0, 1):
            assert 2 * s + spec.beta + j != 0
