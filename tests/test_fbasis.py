import random
from fractions import Fraction
from itertools import product

import pytest

from quadlattice import families as fam
from quadlattice import fbasis
from quadlattice import latticeops as lo
from quadlattice import ttrr
from quadlattice.exactfield import GaussianRational, pochhammer
from quadlattice.fbasis import (
    MONOMIAL,
    MPoly,
    basis_poly,
    h_closed_1,
    h_closed_2,
    interpolate_bivariate,
    interpolate_univariate,
    operator_matrices,
    structure_scalars,
    to_basis,
    u_matrices,
)

B1 = Fraction(2, 3)
B2 = Fraction(7, 3)


def f_basis_eval(n, beta, s):
    """F_n of the quadratic lattice x(s) = s(s+beta) at grid coordinate s."""
    lattice = lo.quadratic(beta)
    return basis_poly(lattice, n).eval((lo.lattice_value(lattice, s),))


def tensor_poly(coeffs, lattices):
    """The MPoly sum of c F_i(x) F_j(y) over {(i, j): c}."""
    out = MPoly.zero(2)
    for (i, j), c in coeffs.items():
        out = out + basis_poly(lattices[0], i, 0, 2) * basis_poly(lattices[1], j, 1, 2) * c
    return out


def test_mpoly_equality_agrees_with_its_hash():
    # equal polynomials hash equal, and a polynomial never equals a scalar,
    # not even its own constant term, so a set keeps the two apart
    three = MPoly.const(2, Fraction(3))
    assert three == MPoly(2, {(0, 0): Fraction(3)})
    assert hash(three) == hash(MPoly(2, {(0, 0): Fraction(3)}))
    assert three != MPoly.const(3, Fraction(3))
    for scalar in (3, Fraction(3), GaussianRational(3, 0)):
        assert three != scalar and scalar != three
    assert MPoly.zero(2) != 0 and 0 != MPoly.zero(2)
    assert len({three, Fraction(3)}) == 2


def test_f_basis_low_orders():
    assert f_basis_eval(0, B1, Fraction(5, 7)) == 1
    s = Fraction(5, 7)
    x = s * (s + B1)
    assert f_basis_eval(1, B1, s) == x + B1 * B1 / 4 - Fraction(1, 16)


def test_structure_scalars():
    assert structure_scalars(1, B1)[1] == Fraction(1, 4)
    assert structure_scalars(0, Fraction(2))[0] == Fraction(-15, 16)
    assert structure_scalars(0, B1)[1] == 0


def test_three_term_relation_on_grid():
    f1 = structure_scalars(1, B1)[0]
    for s in lo.grid_points(lo.quadratic(B1), 8):
        x = s * (s + B1)
        lhs = x * f_basis_eval(1, B1, s) - f_basis_eval(2, B1, s) - f1 * f_basis_eval(1, B1, s)
        assert lhs == 0


def test_basis_relations_under_operators():
    spec = lo.quadratic(B1)
    for n in range(1, 6):
        fn = lambda s: f_basis_eval(n, B1, s)
        g_n = structure_scalars(n, B1)[1]
        for s in lo.grid_points(spec, 4):
            assert lo.apply_D(spec, fn, s) == n * f_basis_eval(n - 1, B1, s)
            assert lo.apply_S(spec, fn, s) == f_basis_eval(n, B1, s) + g_n * f_basis_eval(n - 1, B1, s)


def test_wilson_basis_relations():
    # the Wilson-operator monic basis flips the sign of the g_n and f_n terms
    spec = lo.wilson_square()
    for n in range(1, 5):
        fn = lambda x: basis_poly(spec, n).eval((x * x,))
        g_n = structure_scalars(n, 0)[1]
        f_n = structure_scalars(n, 0)[0]
        for x in lo.grid_points(spec, 4):
            u = x * x
            fval = basis_poly(spec, n).eval((u,))
            prev = basis_poly(spec, n - 1).eval((u,))
            nxt = basis_poly(spec, n + 1).eval((u,))
            assert lo.apply_D(spec, fn, x) == n * prev
            assert lo.apply_S(spec, fn, x) == fval - g_n * prev
            assert u * fval == nxt - f_n * fval


def test_operator_matrix_shapes_and_printed_entries():
    m = operator_matrices(2, B1, B2)
    assert (m.E1.rows, m.E1.cols) == (3, 2)
    assert (m.J2.rows, m.J2.cols) == (3, 2)
    assert (m.L1.rows, m.L1.cols) == (3, 4)
    assert (m.M1.rows, m.M1.cols) == (3, 3)
    assert m.L1.data == [
        [1, 0, 0, 0],
        [0, 1, 0, 0],
        [0, 0, 1, 0],
    ]
    assert m.E1.data == [[2, 0], [0, 1], [0, 0]]
    m1 = operator_matrices(1, B1, B2)
    assert m1.M2.data[0][0] == structure_scalars(0, B2)[0]
    assert m1.M2.data[1][1] == structure_scalars(1, B2)[0]


def _ftensor_components(coeffs):
    comps = {}
    for (i, j), c in coeffs.items():
        comps.setdefault(i + j, {})[j] = c
    return comps


def _components_to_poly(comps, bases):
    coeffs = {}
    for deg, vec in comps.items():
        for k, c in vec.items():
            if c:
                coeffs[(deg - k, k)] = coeffs.get((deg - k, k), 0) + c
    return tensor_poly(coeffs, bases)


def test_coefficient_space_action_matches_pointwise():
    # E/J/L/M action on tensor-F coefficients == pointwise operators,
    # for total degree <= 5 on a 6x6 grid (36 points)
    rng = random.Random(23)
    lx, ly = lo.quadratic(B1), lo.quadratic(B2)
    bases = (lx, ly)
    coeffs = {}
    for _ in range(12):
        i, j = rng.randint(0, 5), rng.randint(0, 5)
        if i + j <= 5:
            coeffs[(i, j)] = Fraction(rng.randint(-7, 7), rng.randint(1, 4))
    coeffs[(3, 2)] = Fraction(1)
    p = tensor_poly(coeffs, bases)
    comps = _ftensor_components(coeffs)

    def act(kind):
        out = {}
        for deg, vec in comps.items():
            m = operator_matrices(deg, B1, B2)
            column = [vec.get(k, Fraction(0)) for k in range(deg + 1)]
            if kind == "D":
                if deg:
                    tgt = out.setdefault(deg - 1, [Fraction(0)] * deg)
                    for r in range(deg + 1):
                        for c in range(deg):
                            tgt[c] += m.E1.data[r][c] * column[r]
            elif kind == "S":
                tgt = out.setdefault(deg, [Fraction(0)] * (deg + 1))
                for k in range(deg + 1):
                    tgt[k] += column[k]
                if deg:
                    tgt = out.setdefault(deg - 1, [Fraction(0)] * deg)
                    for r in range(deg + 1):
                        for c in range(deg):
                            tgt[c] += m.J1.data[r][c] * column[r]
            else:  # multiplication by x(s)
                tgt = out.setdefault(deg + 1, [Fraction(0)] * (deg + 2))
                for r in range(deg + 1):
                    for c in range(deg + 2):
                        tgt[c] += m.L1.data[r][c] * column[r]
                tgt = out.setdefault(deg, [Fraction(0)] * (deg + 1))
                for r in range(deg + 1):
                    for c in range(deg + 1):
                        tgt[c] += m.M1.data[r][c] * column[r]
        return _components_to_poly(
            {d: dict(enumerate(v)) for d, v in out.items()}, bases
        )

    svals = lo.grid_points(lx, 6)
    tvals = lo.grid_points(ly, 6, origin=2)
    for s in svals:
        for t in tvals:
            u, v = s * (s + B1), t * (t + B2)
            f = lambda sig: p.eval((sig * (sig + B1), v))
            assert act("D").eval((u, v)) == lo.apply_D(lx, f, s)
            assert act("S").eval((u, v)) == lo.apply_S(lx, f, s)
            assert act("x").eval((u, v)) == u * p.eval((u, v))


def test_h_closed_forms_match_recursive_expansion():
    for beta in (B1, B2, Fraction(0), Fraction(-3, 5)):
        basis = lo.quadratic(beta)
        for n in range(1, 7):
            poly = basis_poly(basis, n)
            assert poly.coeff((n - 1,)) == h_closed_1(n, beta)
            if n >= 2:
                assert poly.coeff((n - 2,)) == h_closed_2(n, beta)


def test_h_1_0_value():
    assert h_closed_1(1, B1) == (4 * B1 * B1 - 1) / 16
    poly = basis_poly(lo.quadratic(B1), 1)
    assert poly.coeff((0,)) == h_closed_1(1, B1)  # F_1 = x + (4 b^2 - 1)/16


def test_u_matrix_band_structure():
    # U_{n,n-1} bands: H^(1) on the diagonal, H^(2) on the subdiagonal
    n = 4
    u1, u2 = u_matrices(n, lo.quadratic(B1), lo.quadratic(B2))
    for k in range(n + 1):
        for c in range(n):
            expect = Fraction(0)
            if c == k:
                expect = h_closed_1(n - k, B1)
            elif c == k - 1:
                expect = h_closed_1(k, B2)
            assert u1.data[k][c] == expect
    # top-left of U_{2,1} is H^(1)_{2,1}
    u1_small = u_matrices(2, lo.quadratic(B1), lo.quadratic(B2))[0]
    assert u1_small.data[0][0] == h_closed_1(2, B1)
    # second subdiagonal structure of U_{n,n-2}
    for k in range(n + 1):
        for c in range(n - 1):
            expect = Fraction(0)
            if c == k:
                expect = h_closed_2(n - k, B1)
            elif c == k - 1:
                expect = h_closed_1(n - k, B1) * h_closed_1(k, B2)
            elif c == k - 2:
                expect = h_closed_2(k, B2)
            assert u2.data[k][c] == expect


def test_convert_round_trip():
    rng = random.Random(31)
    bases = (lo.quadratic(B1), lo.quadratic(B2))
    for _ in range(5):
        coeffs = {}
        for _ in range(10):
            i, j = rng.randint(0, 4), rng.randint(0, 4)
            if i + j <= 4:
                coeffs[(i, j)] = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
        p = MPoly(2, coeffs)
        fcoeffs = to_basis(p, bases)
        assert tensor_poly(fcoeffs, bases) == p
        # evaluation agrees across representations
        u, v = Fraction(11, 7), Fraction(-4, 5)
        assert p.eval((u, v)) == sum(
            c * basis_poly(bases[0], i).eval((u,)) * basis_poly(bases[1], j).eval((v,))
            for (i, j), c in fcoeffs.items()
        )


def test_constant_unchanged_in_either_basis():
    p = MPoly.const(2, Fraction(9, 2))
    assert to_basis(p, (lo.quadratic(B1), lo.quadratic(B2))) == {(0, 0): Fraction(9, 2)}


def test_to_basis_converts_only_non_linear_axes():
    p = MPoly(2, {(2, 1): Fraction(3), (1, 0): Fraction(-1, 2), (0, 2): Fraction(5)})
    same = to_basis(p, (MONOMIAL, MONOMIAL))
    assert same == p.coeffs and same is not p.coeffs
    wilson = lo.wilson_square()
    # only x changes: x^2 = F_2 + (f_0 + f_1) F_1 + f_0^2 on the Wilson nodes
    f0, f1 = wilson.node(0), wilson.node(1)
    assert to_basis(p, (wilson, MONOMIAL)) == {
        (2, 1): Fraction(3),
        (1, 1): 3 * (f0 + f1),
        (0, 1): 3 * f0 * f0,
        (1, 0): Fraction(-1, 2),
        (0, 0): -f0 / 2,
        (0, 2): Fraction(5),
    }


def test_falling_product_expansion_in_f_basis():
    # (-s)_n (s+beta)_n expands over F_j with the printed coefficients
    for n in range(1, 5):
        for s in lo.grid_points(lo.quadratic(B1), 3):
            lhs = pochhammer(-s, n) * pochhammer(s + B1, n)
            rhs = Fraction(0)
            for j in range(n + 1):
                sign = Fraction(1 if j % 2 == 0 else -1)
                coef = (
                    sign
                    * Fraction(2) ** (2 * j - 2 * n)
                    * pochhammer(Fraction(n - j + 1), j)
                    * pochhammer(B1 + j - Fraction(1, 2), 2 * n - 2 * j)
                    / _fact(j)
                )
                rhs += coef * f_basis_eval(j, B1, s)
            assert lhs == rhs


def _fact(k):
    out = 1
    for j in range(2, k + 1):
        out *= j
    return Fraction(out)


def test_interpolation_exactness():
    nodes = [Fraction(k, 3) for k in range(5)]
    coeffs = interpolate_univariate(nodes, [n * n - Fraction(1, 2) for n in nodes])
    assert coeffs == [Fraction(-1, 2), Fraction(0), Fraction(1), Fraction(0), Fraction(0)]
    p = MPoly(2, {(2, 1): Fraction(3), (0, 0): Fraction(-2, 7)})
    xn = [Fraction(k) for k in range(4)]
    yn = [Fraction(k, 2) for k in range(4)]
    q = interpolate_bivariate(xn, yn, lambda i, j: p.eval((xn[i], yn[j])))
    assert q == p



def plan_free_newton(nodes, values):
    """Textbook Newton interpolation, dividing at every step: the reference
    the node plan must reproduce value for value and type for type."""
    table = list(values)
    newton = []
    for k in range(len(nodes)):
        newton.append(table[0])
        table = [
            (table[i + 1] - table[i]) / (nodes[i + k + 1] - nodes[i])
            for i in range(len(table) - 1)
        ]
    coeffs = [Fraction(0)] * len(nodes)
    prod = [Fraction(1)]
    for k in range(len(nodes)):
        for d, pc in enumerate(prod):
            coeffs[d] = coeffs[d] + newton[k] * pc
        nxt = [Fraction(0)] * (len(prod) + 1)
        for d, pc in enumerate(prod):
            nxt[d + 1] = nxt[d + 1] + pc
            nxt[d] = nxt[d] - nodes[k] * pc
        prod = nxt
    return coeffs


def plan_free_bivariate(xnodes, ynodes, samples):
    """{exponents: c} of the nonzero coefficients of the tensor interpolant
    of ``samples[i][j]``: plan-free Newton along each row, then along each
    column of the row coefficients."""
    rows = [plan_free_newton(ynodes, row) for row in samples]
    out = {}
    for jdeg in range(len(ynodes)):
        column = plan_free_newton(xnodes, [row[jdeg] for row in rows])
        out.update({(ideg, jdeg): c for ideg, c in enumerate(column) if c})
    return out


def _seeded_rationals(rng, count):
    return [Fraction(rng.randint(-40, 40), rng.randint(1, 13)) for _ in range(count)]


# the kinds of samples that _seeded_values draws
FIELDS = ("fraction", "gaussian", "mixed", "unrelated")
# primes above every seeded denominator, so that no two samples share one
UNRELATED_PRIMES = (10007, 10009, 10037, 10039, 10061, 10067, 10069)


def _seeded_values(rng, field, size):
    """``size`` samples of one kind: Fractions, Gaussians, a mix of both
    (the first a Gaussian with imaginary part 0), or Fractions over
    unrelated large primes."""
    if field == "fraction":
        return _seeded_rationals(rng, size)
    if field == "unrelated":
        return [Fraction(rng.randint(-10**6, 10**6), p) for p in UNRELATED_PRIMES[:size]]
    values = [
        GaussianRational(a, b)
        for a, b in zip(_seeded_rationals(rng, size), _seeded_rationals(rng, size))
    ]
    if field == "mixed":
        values = [v if k % 2 else v.re for k, v in enumerate(values)]
        values[0] = GaussianRational(values[0])
    return values


def _apply_plan_in_field(plan, values):
    """Coefficient d is sum_i weights[d][i] * values[i] / den, in the
    values' own field arithmetic."""
    weights, den = plan
    return [sum((w * y for w, y in zip(row, values)), Fraction(0)) / den for row in weights]


@pytest.mark.parametrize("field", FIELDS)
def test_plan_interpolation_matches_plan_free_newton(field):
    rng = random.Random(16)
    for size in range(1, 8):
        nodes = sorted(set(_seeded_rationals(rng, 3 * size)))[:size]
        if field == "unrelated":
            nodes = [x + Fraction(1, p) for x, p in zip(nodes, reversed(UNRELATED_PRIMES))]
        rng.shuffle(nodes)
        values = _seeded_values(rng, field, size)
        got = interpolate_univariate(nodes, values)
        want = plan_free_newton(nodes, values)
        assert got == want
        assert [type(c) for c in got] == [type(c) for c in want]
        plan = fbasis.interpolation_plan(nodes)
        assert _apply_plan_in_field(plan, values) == want


def test_bivariate_interpolation_matches_plan_free_rows_and_columns():
    rng = random.Random(17)
    for field, (xsize, ysize) in product(FIELDS, [(1, 1), (1, 4), (4, 5), (7, 6)]):
        xn = [Fraction(k * k, 3) for k in range(xsize)]
        yn = [Fraction(2 * k + 1, 5) for k in range(ysize)]
        samples = [_seeded_values(rng, field, ysize) for _ in xn]
        want = plan_free_bivariate(xn, yn, samples)
        got = interpolate_bivariate(xn, yn, lambda i, j: samples[i][j])
        assert got == MPoly(2, want), (field, xsize, ysize)
        assert {e: type(c) for e, c in got.coeffs.items()} == {
            e: type(c) for e, c in want.items()
        }, (field, xsize, ysize)


@pytest.mark.parametrize(
    "nodes", [[Fraction(1), Fraction(1)], [Fraction(0), Fraction(1), Fraction(0)]]
)
def test_repeated_node_raises(nodes):
    values = [Fraction(k) for k in range(len(nodes))]
    with pytest.raises(ValueError, match="repeated interpolation node"):
        interpolate_univariate(nodes, values)
    with pytest.raises(ValueError, match="repeated interpolation node"):
        interpolate_bivariate(nodes, [Fraction(0)], lambda i, j: Fraction(i))


@pytest.mark.parametrize("count", [1, 3])
def test_values_length_mismatch_raises(count):
    nodes = [Fraction(k, 2) for k in range(2)]
    with pytest.raises(ValueError, match="nodes/values length mismatch"):
        interpolate_univariate(nodes, [Fraction(k) for k in range(count)])


def _counting_plans(monkeypatch):
    plans = []
    original = fbasis.interpolation_plan

    def counting(nodes):
        plans.append(list(nodes))
        return original(nodes)

    monkeypatch.setattr(fbasis, "interpolation_plan", counting)
    return plans


@pytest.mark.parametrize("size", [1, 3, 6])
def test_bivariate_builds_one_plan_per_axis(monkeypatch, size):
    plans = _counting_plans(monkeypatch)
    xn = [Fraction(k) for k in range(size)]
    yn = [Fraction(k, 2) for k in range(size + 1)]
    interpolate_bivariate(xn, yn, lambda i, j: xn[i] - yn[j])
    assert plans == [xn, yn]


@pytest.mark.parametrize("members", [1, 4])
def test_grid_builds_one_plan_per_axis_for_every_member(monkeypatch, members):
    plans = _counting_plans(monkeypatch)
    lattices = (lo.quadratic(B1), lo.quadratic(B2))
    polys = fbasis.interpolate_on_grid(
        lattices, 3, lambda point: [point[0] ** k - point[1] for k in range(members)]
    )
    axes = lo.grid_axes(lattices, 3)
    assert plans == [
        [lo.lattice_value(lattice, s) for s in axis] for lattice, axis in zip(lattices, axes)
    ]
    assert len(polys) == members

# The benchmark's parameter draws: per parameter owner, in sorted order,
# each DEFAULT_PARAMS value plus k/p with one prime p per position.
BENCHMARK_PRIMES = (13, 17, 19, 23, 29, 31)


def _benchmark_params(seed, family):
    rng = random.Random(seed)
    draws = {}
    for owner in sorted({fam.base_family(f) for f in fam.ALL_FAMILIES}):
        draws[owner] = {
            name: fam.DEFAULT_PARAMS[owner][name] + Fraction(rng.randint(1, p - 1), p)
            for name, p in zip(fam.PARAM_NAMES[owner], BENCHMARK_PRIMES)
        }
    return draws[fam.base_family(family)]


@pytest.mark.parametrize("seed", [1, 2, 3, 7])
def test_oracle_matches_plan_free_newton_at_benchmark_draws(seed):
    for family in ttrr.TTRR_FAMILIES:
        spec = fam.FamilySpec(family, _benchmark_params(seed, family))
        lattices = spec.lattices()
        for n in range(5):
            svals, tvals = lo.grid_axes(lattices, n + 2)
            xn = [lo.lattice_value(lattices[0], s) for s in svals]
            yn = [lo.lattice_value(lattices[1], t) for t in tvals]
            oracle = ttrr.family_poly_vector(spec, n)
            for k in range(n + 1):
                samples = [
                    [fam.eval_family(spec, (n - k, k), (s, t)) for t in tvals] for s in svals
                ]
                want = plan_free_bivariate(xn, yn, samples)
                got = oracle[k].coeffs
                assert got == want, (family, n, k)
                assert {e: type(c) for e, c in got.items()} == {
                    e: type(c) for e, c in want.items()
                }, (family, n, k)


@pytest.mark.parametrize("family", [fam.RACAH, fam.WILSON_BAR, fam.CH])
def test_oracle_rejects_a_sample_perturbed_at_one_grid_point(monkeypatch, family):
    spec = fam.FamilySpec(family)
    n = 2
    svals, tvals = lo.grid_axes(spec.lattices(), n + 2)
    bad = (svals[1], tvals[2])
    original = ttrr.family_function

    def perturbed(spec, label):
        member = original(spec, label)
        if tuple(label) != (1, 1):
            return member
        return lambda point: member(point) + (Fraction(1, 1000) if point == bad else 0)

    monkeypatch.setattr(ttrr, "family_function", perturbed)
    with pytest.raises(AssertionError, match="interpolated family entry exceeds total degree"):
        ttrr.family_poly_vector(spec, n)


def test_mpoly_json():
    p = MPoly(2, {(1, 0): Fraction(1, 2), (0, 0): Fraction(3)})
    assert p.to_json() == [
        {"dx": 0, "dy": 0, "coeff": "3"},
        {"dx": 1, "dy": 0, "coeff": "1/2"},
    ]
    m = operator_matrices(1, B1, B2)
    blob = m.to_json()
    assert blob["E1"]["data"] == [["1"], ["0"]]
