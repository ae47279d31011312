import hashlib
import json
import math
import random
from collections import Counter
from fractions import Fraction
from functools import partial
from itertools import product

import pytest

from quadlattice import families as fam
from quadlattice import fbasis
from quadlattice import latticeops as lo
from quadlattice import pdeverify as pv
from quadlattice import ttrr
from quadlattice.cli import EXIT_MISMATCH, run
from quadlattice.exactfield import GaussianRational, demote, from_parts
from quadlattice.fbasis import MPoly, poly_D, poly_S
from quadlattice.latticeops import SingularPointError
from quadlattice.matrix import ExactMatrix, solve_stacked
from test_cli import _drawn_params

import basis_reference

PTS2 = [(Fraction(8, 7), Fraction(16, 7)), (Fraction(15, 7), Fraction(23, 7))]
PTS3 = [(Fraction(8, 7), Fraction(16, 7), Fraction(9, 7)),
        (Fraction(15, 7), Fraction(23, 7), Fraction(12, 7))]


# -- table structure -----------------------------------------------------------

def test_mixed_index_validation():
    assert pv.validate_mixed_index((1, 2), 2) == (1, 2)
    with pytest.raises(ValueError):
        pv.validate_mixed_index((3, 0), 2)
    with pytest.raises(ValueError):
        pv.validate_mixed_index((1,), 2)


def test_coefficient_degree_and_dependence_pattern():
    for name in (fam.RACAH, fam.WILSON, fam.CDH, fam.CH, fam.CH_TRI):
        table = pv.coefficients(fam.FamilySpec(name))
        for fi, lind in zip(table.coeffs, table.lindices):
            assert fi.total_degree() <= sum(lind)
            for var, l in enumerate(lind):
                if l == 0:
                    assert not fi.depends_on(var)


def test_printed_coefficient_spot_values():
    rspec = fam.FamilySpec(fam.RACAH)
    p = rspec.params
    table = pv.coefficients(rspec)
    zero = (Fraction(0), Fraction(0))
    assert table.coeffs[7].eval(zero) == -p["N"] * (p["beta0"] - p["beta2"]) * (p["beta3"] + p["N"])
    assert table.coeffs[6].eval(zero) == -p["N"] * (p["beta0"] - p["beta1"]) * (p["beta3"] + p["N"])
    assert pv.coefficients(fam.FamilySpec(fam.CDH)).eigenvalue((2, 1)) == 3
    ch = fam.FamilySpec(fam.CH)
    q = ch.params
    assert pv.coefficients(ch).coeffs[3].eval(zero) == q["a1"] * q["b3"] + q["b1"] * q["a3"]
    tri = fam.FamilySpec(fam.CH_TRI)
    r = tri.params
    f7_at_origin = pv.coefficients(tri).coeffs[6].eval((Fraction(0),) * 3)
    expect = Fraction(1, 2) * (
        r["b4"] * r["a1"] + r["b1"] * r["a4"] + r["e2"] * r["a4"]
        + r["e3"] * r["a4"] + r["b4"] * r["e2"] + r["b4"] * r["e3"]
    )
    assert f7_at_origin == expect


def test_ch_printed_equal_coefficient_pairs_are_genuinely_equal():
    # f2 = f3 bivariate; f17 = f18 = f19 and f23 = f24 = f25 trivariate: the
    # printed tables show them identical and the residuals below confirm
    # those equalities are consistent, not typesetting collapse
    ch = pv.coefficients(fam.FamilySpec(fam.CH))
    assert (ch.coeffs[1] - ch.coeffs[2]).is_zero()
    tri = pv.coefficients(fam.FamilySpec(fam.CH_TRI))
    assert (tri.coeffs[16] - tri.coeffs[17]).is_zero()
    assert (tri.coeffs[17] - tri.coeffs[18]).is_zero()
    assert (tri.coeffs[22] - tri.coeffs[23]).is_zero()
    assert (tri.coeffs[23] - tri.coeffs[24]).is_zero()


# -- residuals ------------------------------------------------------------------

def test_fourth_order_residuals_vanish_spotwise():
    for name in (fam.RACAH, fam.WILSON, fam.CDH, fam.CH):
        spec = fam.FamilySpec(name)
        table = pv.coefficients(spec)
        for label in [(0, 0), (1, 1), (2, 1)]:
            for pt in PTS2:
                assert pv.residual(table, spec, label, pt) == 0


def test_bar_families_solve_the_same_equation():
    for base, bar in ((fam.RACAH, fam.RACAH_BAR), (fam.WILSON, fam.WILSON_BAR),
                      (fam.CH, fam.CH_BAR)):
        table = pv.coefficients(fam.FamilySpec(base))
        spec = fam.FamilySpec(bar)
        for label in [(1, 1), (2, 1)]:
            for pt in PTS2:
                assert pv.residual(table, spec, label, pt) == 0


def test_residuals_vanish_at_a_second_parameter_set():
    # guards the tables against typos that would cancel only at the fixtures
    alt = {
        fam.RACAH: {"beta0": Fraction(2, 7), "beta1": Fraction(5, 4),
                    "beta2": Fraction(10, 3), "beta3": Fraction(21, 4), "N": Fraction(23, 3)},
        fam.WILSON: {"a": Fraction(3, 7), "b": Fraction(5, 8), "c": Fraction(9, 7),
                     "d": Fraction(13, 11), "e2": Fraction(3, 8)},
        fam.CDH: {"a": Fraction(3, 7), "b": Fraction(5, 8), "c": Fraction(9, 7),
                  "e2": Fraction(3, 8)},
        fam.CH: {"a1": Fraction(2, 5), "e2": Fraction(3, 11), "a3": Fraction(5, 7),
                 "b1": Fraction(7, 9), "b3": Fraction(5, 13)},
        fam.CH_TRI: {"a1": Fraction(2, 5), "e2": Fraction(3, 11), "b1": Fraction(7, 9),
                     "e3": Fraction(4, 7), "a4": Fraction(2, 9), "b4": Fraction(6, 13)},
    }
    for name, params in alt.items():
        spec = fam.FamilySpec(name, params=params)
        table = pv.coefficients(spec)
        pts = PTS3 if spec.nvars == 3 else PTS2
        labels = [(1, 1, 0), (1, 0, 1)] if spec.nvars == 3 else [(1, 1), (2, 1)]
        for label in labels:
            for pt in pts:
                assert pv.residual(table, spec, label, pt) == 0, (name, label, pt)


def test_zero_label_residual_trivial():
    spec = fam.FamilySpec(fam.RACAH)
    table = pv.coefficients(spec)
    assert table.eigenvalue((0, 0)) == 0
    assert pv.residual(table, spec, (0, 0), PTS2[0]) == 0


def test_trivariate_residual_spotwise():
    spec = fam.FamilySpec(fam.CH_TRI)
    table = pv.coefficients(spec)
    for label in [(0, 0, 0), (1, 1, 0), (1, 0, 1), (0, 1, 1), (2, 0, 0)]:
        for pt in PTS3:
            assert pv.residual(table, spec, label, pt) == 0


def test_mixed_operator_commutativity_spot_check():
    # x-then-y equals y-then-x for the cross term
    spec = fam.FamilySpec(fam.RACAH)
    lattices = spec.lattices()
    f = fam.family_function(spec, (2, 1))
    for pt in PTS2:
        w_xy = pv.stencil_weights(lattices, (1, 1), pt)
        # apply in the opposite order by transposing the lattice/variable roles
        g = lambda q: f((q[1], q[0]))
        swapped = (lattices[1], lattices[0])
        w_yx = pv.stencil_weights(swapped, (1, 1), (pt[1], pt[0]))
        val_xy = sum(w * f(q) for q, w in w_xy.items())
        val_yx = sum(w * g(q) for q, w in w_yx.items())
        assert val_xy == val_yx


@pytest.mark.parametrize("name", [fam.RACAH, fam.CH_TRI])
def test_sweep_walks_labels_in_the_reference_order(name):
    # the (degree, label) order as it was first built: every tuple in the
    # box, filtered by total degree and sorted
    spec = fam.FamilySpec(name)
    reference = sorted(
        (l for l in product(range(7), repeat=spec.nvars) if sum(l) <= 6),
        key=lambda l: (sum(l), l),
    )
    swept = pv.sweep(spec, 6, lambda label: [(None, 0)])
    assert [label for label, _, _ in swept] == reference


@pytest.mark.parametrize("name, degree, grid_size, folds", [
    (fam.RACAH, 1, None, 6 ** 2),
    (fam.WILSON, 2, None, 7 ** 2),
    (fam.CH_TRI, 1, 2, 2 ** 3),
])
def test_sweep_folds_each_grid_point_once(monkeypatch, name, degree, grid_size, folds):
    # each label's grid is a prefix of the next, so a sweep of degree <= d
    # folds the (d+5)^p points of its largest grid once; a second sweep
    # starts afresh
    calls = []
    fold = pv.CoeffTable.fold

    def counted(self, point):
        calls.append(point)
        return fold(self, point)

    monkeypatch.setattr(pv.CoeffTable, "fold", counted)
    spec = fam.FamilySpec(name)
    for sweeps in (1, 2):
        reports = pv.verify_table(spec, degree, grid_size=grid_size)
        assert all(r["pass"] for r in reports)
        assert len(calls) == sweeps * folds
        assert len(set(calls)) == folds
    assert sum(r["points"] for r in reports) > folds


@pytest.mark.parametrize("kind", ["wilson-x", "wilson-f"])
def test_an_equation_folds_each_grid_point_once(monkeypatch, kind):
    # one sweep of degree <= 3 folds the (3 + 5)^2 points of its largest
    # grid once each: its StencilGrid keeps the stencils, the equation none
    calls = []
    if kind == "wilson-x":
        fold, build = pv.CoeffTable.fold, pv.second_order_equation

        def counted(self, point):
            calls.append(point)
            return fold(self, point)

        monkeypatch.setattr(pv.CoeffTable, "fold", counted)
    else:
        stencil, build = pv.wilson_f_stencil, pv.difference_form_equation

        def counted(table, x, y):
            calls.append((x, y))
            return stencil(table, x, y)

        monkeypatch.setattr(pv, "wilson_f_stencil", counted)
    spec = fam.FamilySpec(fam.WILSON)
    swept = list(pv.equation_sweep(build(kind, spec), spec, 3))
    assert len(swept) == 10 and all(witness is None for _, _, witness in swept)
    assert sum(checked for _, checked, _ in swept) > 64
    assert len(calls) == len(set(calls)) == 64


def test_residual_raises_on_singular_point():
    spec = fam.FamilySpec(fam.RACAH)
    table = pv.coefficients(spec)
    bad_s = -spec.params["beta1"] / 2
    with pytest.raises(SingularPointError):
        pv.residual(table, spec, (1, 1), (bad_s, Fraction(16, 7)))


# -- grid sampling against the per-point route ---------------------------------------

def _coefficient_typo(table, index):
    """The table with f_(index + 1) off by +1/1000."""
    coeffs = list(table.coeffs)
    coeffs[index] = coeffs[index] + Fraction(1, 1000)
    return pv.CoeffTable(coeffs, table.eigenvalue, table.lattices)


def _weight_typo(equation):
    """The equation with the first weight of every folded stencil off by
    +1/1000."""

    def fold(point):
        den, weights = equation.fold(point)
        weights = {q: (1000 * a, 1000 * b) for q, (a, b) in weights.items()}
        first = next(iter(weights))
        a, b = weights[first]
        weights[first] = (a + den, b)
        return 1000 * den, weights

    return pv.Equation(fold, equation.eigenvalue)


def _per_point_sweep(equation, spec, bound, member, grid_size=None):
    """The sweep point by point: each residual from table_residual_on with
    ``member(label)``, a function of the point, up to each label's first
    nonzero one."""

    def values(label):
        f = member(label)
        for point in product(*pv.residual_grid(spec, label, size=grid_size)):
            yield point, pv.table_residual_on(equation, f, label, point)

    return list(pv.sweep(spec, bound, values))


def _series_member(spec):
    return lambda label: lambda q: fam.eval_family_oracle(spec, label, q)


def _pointwise_member(spec):
    return lambda label: fam.family_function(spec, label)


def _typed(swept):
    return [(label, checked, w and (w[0], w[1], type(w[1]))) for label, checked, w in swept]


# name -> (family, the equation with one printed coefficient (or weight) off
# by +1/1000, degree bound, grid size)
WITNESS_CASES = {
    "racah": (fam.RACAH, lambda spec: _coefficient_typo(pv.coefficients(spec), 7), 2, None),
    "wilson": (fam.WILSON, lambda spec: _coefficient_typo(pv.coefficients(spec), 3), 2, None),
    "cdh": (fam.CDH, lambda spec: _coefficient_typo(pv.coefficients(spec), 4), 2, None),
    "ch": (fam.CH, lambda spec: _coefficient_typo(pv.coefficients(spec), 6), 2, None),
    "ch-tri": (fam.CH_TRI, lambda spec: _coefficient_typo(pv.coefficients(spec), 0), 1, 2),
    "wilson-x": (
        fam.WILSON, lambda spec: _coefficient_typo(pv.second_order_equation("wilson-x", spec), 6), 2,
        None,
    ),
    "racah-gi": (
        fam.RACAH, lambda spec: _weight_typo(pv.difference_form_equation("racah-gi", spec)), 1,
        None,
    ),
}


@pytest.mark.parametrize("name", WITNESS_CASES)
def test_grid_witnesses_are_the_series_oracle_witnesses(name):
    # with one coefficient off, each label's first failing point and its
    # value are those of the per-point sweep on the independent series
    # oracle, and a passing label checks its whole grid
    family, build, bound, grid_size = WITNESS_CASES[name]
    spec = fam.FamilySpec(family)
    swept = list(pv.equation_sweep(build(spec), spec, bound, grid_size))
    reference = _per_point_sweep(build(spec), spec, bound, _series_member(spec), grid_size)
    assert _typed(swept) == _typed(reference)
    assert any(w for _, _, w in swept)


@pytest.mark.parametrize("family", [fam.RACAH, fam.WILSON, fam.CDH, fam.CH, fam.CH_TRI])
def test_grid_sweep_passes_at_drawn_parameters_over_whole_grids(family):
    spec = fam.FamilySpec(family, _drawn_params(family))
    bound, grid_size = (1, 2) if family == fam.CH_TRI else (2, None)
    reports = pv.verify_table(spec, bound, grid_size=grid_size)
    assert all(r["pass"] for r in reports)
    size = lambda label: grid_size or sum(label) + 5
    assert [r["points"] for r in reports] == [size(r["label"]) ** spec.nvars for r in reports]
    reference = _per_point_sweep(pv.coefficients(spec), spec, bound, _pointwise_member(spec), grid_size)
    assert [(list(label), checked) for label, checked, _ in reference] == [
        (r["label"], r["points"]) for r in reports
    ]


# name -> (family, parameters, equation builder, degree bound, the error);
# each draw makes a lower Pochhammer vanish at some sweep coordinates only
# or at every point of some labels
SAMPLE_ERROR_CASES = {
    # beta + delta + 1 = beta2 + t vanishes at t = 22/7, beside the first point
    "racah-coordinate": (
        fam.RACAH, {"beta2": Fraction(-22, 7)}, pv.coefficients, 2,
        "denominator parameter beta+delta+1 = 0 hits zero at shift 0",
    ),
    # at label (1, 1) alpha + 1 = 2 + beta2 - beta0 vanishes in the y factor
    # whatever the point, and beta2 + t in the x factor at t = 64/7 only, the
    # last neighbour of the label's grid: the per-point route meets the y
    # factor's first, where a grid that raised as it sampled would not
    "racah-both": (
        fam.RACAH, {"beta0": Fraction(-50, 7), "beta2": Fraction(-64, 7)}, pv.coefficients, 2,
        "denominator parameter alpha+1 = 0 hits zero at shift 0",
    ),
    # gamma + 1 = s - N vanishes at s = 15/7 in the y factor of racah-bar
    "racah-bar-gi": (
        fam.RACAH_BAR, {"N": Fraction(15, 7)},
        lambda spec: pv.difference_form_equation("racah-gi", spec), 2,
        "denominator parameter gamma+1 = 0 hits zero at shift 0",
    ),
}


@pytest.mark.parametrize("name", SAMPLE_ERROR_CASES)
def test_grid_sweep_raises_what_the_per_point_sweep_raises(name):
    family, params, build, bound, message = SAMPLE_ERROR_CASES[name]
    raised = []
    for sweep in (
        lambda spec: list(pv.equation_sweep(build(spec), spec, bound)),
        lambda spec: _per_point_sweep(build(spec), spec, bound, _pointwise_member(spec)),
    ):
        with pytest.raises(fam.DegenerateParameterError) as exc:
            sweep(fam.FamilySpec(family, params))
        raised.append(str(exc.value))
    assert raised == [message, message]


def test_a_failing_point_comes_before_a_sample_that_cannot_be_taken():
    # with f8 off, label (1, 1) fails at its first point, before any residual
    # reads the sample at t = 64/7 that raises: the witness is reported, as the
    # per-point route reports it, though the grid holds the error
    spec = fam.FamilySpec(fam.RACAH, {"beta2": Fraction(-64, 7)})
    table = _coefficient_typo(pv.coefficients(spec), 7)
    swept = dict((label, w) for label, _, w in pv.equation_sweep(table, spec, 2))
    assert swept[(1, 1)] is not None
    reference = _per_point_sweep(table, spec, 2, _pointwise_member(spec))
    assert _typed(list(pv.equation_sweep(table, spec, 2))) == _typed(reference)


@pytest.mark.parametrize("kind", ["table", "wilson-f"])
def test_a_non_real_sample_raises_the_per_point_message(kind):
    # the x factor of label (1, 1) turned by i: its value at a real point,
    # the grid point itself, comes out imaginary; the message names the
    # point as the stencil keys it (the nine-term form's as Gaussian
    # coordinates), as the per-point route does
    build = pv.coefficients if kind == "table" else partial(pv.difference_form_equation, "wilson-f")
    raised = []
    try:
        for grid in (True, False):
            spec = fam.FamilySpec(fam.WILSON)
            fam._eval_cached.cache_clear()
            fam._member(spec, (1, 1))[0].turns = 1
            with pytest.raises(ArithmeticError, match="came out non-real") as exc:
                if grid:
                    list(pv.equation_sweep(build(spec), spec, 2))
                else:
                    _per_point_sweep(build(spec), spec, 2, _pointwise_member(spec))
            raised.append(str(exc.value))
    finally:
        # equal specs share the cache: drop what the turned factor left there
        fam._eval_cached.cache_clear()
    assert raised[0] == raised[1]
    point = "(Fraction(8, 7), Fraction(15, 7))"
    if kind == "wilson-f":
        point = "(GaussianRational(Fraction(8, 7), Fraction(0, 1)), GaussianRational(Fraction(15, 7), Fraction(0, 1)))"
    assert raised[0].startswith(f"wilson value at {point} came out non-real: ")


@pytest.mark.parametrize("name", SAMPLE_ERROR_CASES)
def test_a_label_its_grid_cannot_sample_is_swept_point_by_point(monkeypatch, name):
    # the labels swept before the failing one read no pointwise value; the
    # failing label reads its member through family_function, at the points
    # the per-point route reads there, in its order, up to the same error
    family, params, build, bound, message = SAMPLE_ERROR_CASES[name]
    reads = []
    cached = fam._eval_cached

    def counted(spec, label, point):
        reads.append((label, point))
        return cached(spec, label, point)

    monkeypatch.setattr(fam, "_eval_cached", counted)
    spec = fam.FamilySpec(family, params)
    swept = []
    with pytest.raises(fam.DegenerateParameterError) as exc:
        for label, _, _ in pv.equation_sweep(build(spec), spec, bound):
            swept.append(label)
    assert str(exc.value) == message
    order = [label for n in range(bound + 1) for label in reversed(fbasis.graded(n, spec.nvars))]
    failing = order[len(swept)]
    grid_reads = reads[:]
    assert grid_reads and {label for label, _ in grid_reads} == {failing}
    reads.clear()
    spec = fam.FamilySpec(family, params)
    with pytest.raises(fam.DegenerateParameterError):
        _per_point_sweep(build(spec), spec, bound, _pointwise_member(spec))
    assert grid_reads == [read for read in reads if read[0] == failing]


def test_residual_is_the_one_point_grid(monkeypatch):
    # residual samples its member by one family_grid call on the point's
    # stencil coordinates, and never through the pointwise member
    calls = []
    grid = fam.family_grid

    def counted(spec, labels, axes):
        calls.append([len(axis) for axis in axes])
        return grid(spec, labels, axes)

    monkeypatch.setattr(pv, "family_grid", counted)
    monkeypatch.setattr(fam, "_eval_cached", None)
    spec = fam.FamilySpec(fam.WILSON)
    assert pv.residual(pv.coefficients(spec), spec, (1, 1), PTS2[0]) == 0
    assert calls == [[3, 3]]


# -- the pointwise operator engine ---------------------------------------------------

def _nested_mixed(lattices, lindex, f, point):
    """E_lindex f by composing apply_D / apply_S one variable at a time."""

    def in_var(var, g, op):
        lat = lattices[var]
        return lambda pt: op(lat, lambda v: g(pt[:var] + (v,) + pt[var + 1:]), pt[var])

    g = f
    for var in reversed(range(len(lattices))):
        l = lindex[var]
        if l:
            g = in_var(var, g, lo.apply_D)
            g = in_var(var, g, lo.apply_D if l == 2 else lo.apply_S)
    return g(tuple(point))


def _rational_function(q):
    # not a polynomial, so a wrong tensor-product weight cannot cancel
    num = 1 + sum((k + 2) * v for k, v in enumerate(q))
    den = Fraction(7, 3) + sum(v * v * (k + 1) for k, v in enumerate(q)) + q[0] * q[-1]
    return num / den


ENGINE_LATTICES = {
    "quadratic": (lo.quadratic(Fraction(3, 5)), lo.quadratic(Fraction(-7, 3)),
                  lo.quadratic(Fraction(2, 9))),
    "wilson-square": (lo.wilson_square(), lo.wilson_square("y"), lo.wilson_square("z")),
    "linear": (lo.linear(), lo.linear("y"), lo.linear("z")),
    "mixed": (lo.quadratic(Fraction(3, 5)), lo.wilson_square("y"), lo.linear("z")),
}


@pytest.mark.parametrize("kind", sorted(ENGINE_LATTICES))
@pytest.mark.parametrize("nvars", [2, 3])
def test_engine_matches_nested_operator_composition(kind, nvars):
    lattices = ENGINE_LATTICES[kind][:nvars]
    point = PTS3[0][:nvars]
    for lindex in product(range(3), repeat=nvars):
        weights = pv.stencil_weights(lattices, lindex, point)
        engine = sum(w * _rational_function(q) for q, w in weights.items())
        expect = _nested_mixed(lattices, lindex, _rational_function, point)
        assert engine == expect, (kind, lindex)
        assert pv.apply_mixed(lattices, lindex, _rational_function, point) == expect
        assert len(weights) <= 3 ** sum(1 for l in lindex if l)


@pytest.mark.parametrize("name", [fam.RACAH, fam.WILSON, fam.CH_TRI])
def test_folded_residual_matches_operator_by_operator_sum(name):
    spec = fam.FamilySpec(name)
    table = pv.coefficients(spec)
    point = PTS3[1][:spec.nvars]
    label = (1,) * spec.nvars
    latpt = table.lattice_point(point)
    expect = table.eigenvalue(label) * _rational_function(point) + sum(
        fi.eval(latpt) * _nested_mixed(table.lattices, lind, _rational_function, point)
        for fi, lind in zip(table.coeffs, table.lindices)
    )
    assert expect != 0
    assert pv.table_residual_on(table, _rational_function, label, point) == expect


def test_fold_adds_repeated_operators():
    lattices, point = ENGINE_LATTICES["mixed"][:2], PTS2[0]
    twice = pv.fraction_view(pv.fold_terms(lattices, point, [(2, (1, 2)), (3, (1, 2))]))
    assert twice == pv.fraction_view(pv.fold_terms(lattices, point, [(5, (1, 2))]))


def test_engine_nested_denominator_singularity():
    # 2s + beta1 = -1 is nonzero, but the inner D at s + 1/2 divides by zero
    spec = fam.FamilySpec(fam.RACAH)
    lattices = spec.lattices()
    s = (-spec.params["beta1"] - 1) / 2
    point = (s, Fraction(16, 7))
    assert from_parts(*lo.half_step(lattices[0], s)[2]) == -1
    for lindex in ((2, 0), (1, 0)):
        with pytest.raises(SingularPointError, match=f"vanishes at {s + Fraction(1, 2)} on"):
            pv.stencil_weights(lattices, lindex, point)
    assert len(pv.stencil_weights(lattices, (0, 1), point)) == 3


def test_zero_coefficients_skip_singular_stencils():
    spec = fam.FamilySpec(fam.RACAH)
    lattices = spec.lattices()
    s = (-spec.params["beta1"] - 1) / 2
    point = (s, Fraction(16, 7))
    x, y = MPoly.var(0, 2), MPoly.var(1, 2)
    x0 = lo.lattice_value(lattices[0], s)
    zero = MPoly.zero(2)
    # every operator acting on x is singular at s; its coefficient vanishes there
    coeffs = [zero, zero, zero, zero, (x - x0) * (x - x0), y + 1, x - x0, y + 3]
    table = pv.CoeffTable(coeffs, lambda label: 5, lattices)
    latpt = table.lattice_point(point)
    expect = 5 * _rational_function(point) + sum(
        fi.eval(latpt) * _nested_mixed(lattices, lind, _rational_function, point)
        for fi, lind in zip(coeffs[5:], ((0, 2), (1, 0), (0, 1)))
        if fi.eval(latpt)
    )
    assert pv.table_residual_on(table, _rational_function, (1, 1), point) == expect
    # every coefficient zero: no stencil at all, only lambda P remains
    blank = pv.CoeffTable([zero] * 8, lambda label: 5, lattices)
    assert pv.table_residual_on(blank, _rational_function, (1, 1), point) == 5 * _rational_function(point)
    singular = pv.CoeffTable(coeffs[:6] + [x - x0 + 1, y + 3], lambda label: 5, lattices)
    with pytest.raises(SingularPointError):
        pv.table_residual_on(singular, _rational_function, (1, 1), point)


def test_inactive_variable_rule_follows_the_acting_operators():
    # f5 beside E(2,0) may depend on y only while no operator acts on y: with
    # f8 (E(0,1)) nonzero it may not; with f8 zero too, y is a parameter, as
    # the other variable of a second-order form is
    lattices = fam.FamilySpec(fam.RACAH).lattices()
    x, y = MPoly.var(0, 2), MPoly.var(1, 2)
    zero = MPoly.zero(2)
    coeffs = [zero] * 4 + [x * y, zero, x, y + 1]
    with pytest.raises(AssertionError, match="depends on inactive variable 1"):
        pv.CoeffTable(coeffs, lambda label: 5, lattices)
    pv.CoeffTable(coeffs[:7] + [zero], lambda label: 5, lattices)


def test_table_coefficients_cannot_be_reassigned():
    # a table folds each point once, so its coefficients must not change
    table = pv.coefficients(fam.FamilySpec(fam.RACAH))
    with pytest.raises(TypeError):
        table.coeffs[6] = MPoly.zero(2)


def test_residual_leaves_the_folded_stencil_unchanged():
    # lambda joins a new dict, never the stencil the sweep's grid keeps
    spec = fam.FamilySpec(fam.WILSON)
    for equation in (
        pv.coefficients(spec),
        pv.second_order_equation("wilson-x", spec),
        pv.difference_form_equation("wilson-f", spec),
    ):
        grid = pv.StencilGrid(equation, spec)
        for pt in PTS2:
            kept = grid._stencil(pt)
            den, weights, own = kept
            before = dict(weights)
            for label in ((2, 1), (0, 0)):
                assert [value for _, value in grid.residuals(label, [pt])] == [0]
            assert grid._stencil(pt) is kept
            assert kept == (den, before, own)


# -- the integer engine against the Fraction contraction -------------------------------
# The engine used to contract in field arithmetic; that contraction is kept
# here, spelled out, as the reference for the integer one.

def _reference_weights_1d(lattice, s, l):
    up, down = lo.shifted_points(lattice, s)
    up_up, mid, inv_up = basis_reference.half_step(lattice, up)
    down_down, inv_down = basis_reference.half_step(lattice, down)[1:]
    if l == 2:
        outer = basis_reference.half_step(lattice, s)[2]
        w_up, w_down = outer * inv_up, -outer * inv_down
    else:
        w_up, w_down = Fraction(1, 2) * inv_up, Fraction(1, 2) * inv_down
    pairs = ((up_up, w_up), (mid, w_down - w_up), (down_down, -w_down))
    return {q: w for q, w in pairs if w}


def reference_fold(lattices, point, terms):
    """{q: w} of sum c E_lindex at the point, contracted in field arithmetic
    one variable at a time, last variable first."""
    layer = {}
    for c, lindex in terms:
        tail = layer.setdefault(lindex, {})
        tail[()] = tail[()] + c if () in tail else c
    for var in range(len(point) - 1, -1, -1):
        merged = {}
        for lindex, tail in layer.items():
            acc = merged.setdefault(lindex[:var], {})
            if lindex[var]:
                factor = _reference_weights_1d(lattices[var], point[var], lindex[var]).items()
                pairs = [((c,) + q, wc * w) for c, wc in factor for q, w in tail.items()]
            else:
                pairs = [((point[var],) + q, w) for q, w in tail.items()]
            for q, w in pairs:
                acc[q] = acc[q] + w if q in acc else w
        layer = merged
    return layer.get((), {})


def reference_stencil(equation, point):
    if isinstance(equation, pv.CoeffTable):
        latpt = equation.lattice_point(point)
        terms = [(c, lind) for fi, lind in zip(equation.coeffs, equation.lindices)
                 if (c := fi.eval(latpt))]
        return reference_fold(equation.lattices, point, terms)
    return pv.fraction_view(equation.fold(point))


def reference_residual(equation, f, label, point):
    merged = {point: equation.eigenvalue(label)}
    for q, w in reference_stencil(equation, point).items():
        merged[q] = merged[q] + w if q in merged else w
    return demote(sum(w * f(q) for q, w in merged.items()))


def _nonzero(weights):
    return {q: w for q, w in weights.items() if w}


# perfbench draws each parameter as a default plus k/p, one prime p >= 13 per
# position, and offsets its CLI grids by 1/7 + r/101
REFERENCE_PRIMES = (13, 17, 19, 23, 29, 31)


def _bench_params(family, seed):
    rng = random.Random(seed)
    owner = fam.base_family(family)
    defaults = fam.DEFAULT_PARAMS[owner]
    return {
        name: defaults[name] + Fraction(rng.randint(1, p - 1), p)
        for name, p in zip(fam.PARAM_NAMES[owner], REFERENCE_PRIMES)
    }


def _typo(table, lindex):
    """The table with 1/1000 added to the coefficient of E_lindex."""
    coeffs = list(table.coeffs)
    index = table.lindices.index(lindex)
    coeffs[index] = coeffs[index] + MPoly.const(table.nvars, Fraction(1, 1000))
    return pv.CoeffTable(coeffs, table.eigenvalue, table.lattices)


def _reference_cases(spec):
    """(name, equation, mutated) for the table, second-order form and
    nine-term form of a family, each beside a mutated copy (a +1/1000 typo)
    whose residual on some member of degree <= 1 in each variable is
    nonzero: the typo sits beside a first-order operator."""
    table = pv.coefficients(spec)
    first, *_, last = (lind for lind in table.lindices if sum(lind) == 1)
    cases = [("table", table, False), (f"table E{first}", _typo(table, first), True),
             (f"table E{last}", _typo(table, last), True)]
    for kind, (family, var, *_) in pv.SECOND_ORDER_FORMS.items():
        if family == spec.family:
            form = pv.second_order_equation(kind, spec)
            sd = tuple(1 if i == var else 0 for i in range(2))
            cases += [(kind, form, False), (f"{kind} tau", _typo(form, sd), True)]
    kind = pv.DIFFERENCE_FORMS.get(spec.family)
    if kind is not None:
        form = pv.difference_form_equation(kind, spec)
        shifted = pv.Equation(form.fold, lambda l, lam=form.eigenvalue: lam(l) + Fraction(1, 1000))
        cases += [(kind, form, False), (f"{kind} lambda", shifted, True)]
    return cases


REFERENCE_FAMILIES = [fam.RACAH, fam.WILSON, fam.WILSON_BAR, fam.CDH, fam.CH, fam.CH_TRI]


@pytest.mark.parametrize("draw", ["default", "bench"])
@pytest.mark.parametrize("name", REFERENCE_FAMILIES)
def test_integer_residual_matches_the_fraction_contraction(name, draw):
    # zero and nonzero residuals, value and type, on members, on a rational
    # function and on mutated equations, at default and perfbench-drawn
    # parameters and grid offsets
    params = None if draw == "default" else _bench_params(name, seed=len(name))
    spec = fam.FamilySpec(name, params=params)
    offset = Fraction(1, 7) + (Fraction(9, 101) if draw == "bench" else 0)
    labels = [(0,) * spec.nvars, (1,) + (0,) * (spec.nvars - 1), (1,) * spec.nvars]
    types = set()
    for case, equation, mutated in _reference_cases(spec):
        member_nonzero = False
        for label in labels:
            member = fam.family_function(spec, label)
            for point in product(*pv.residual_grid(spec, label, size=2, offset=offset)):
                for f in (member, _rational_function):
                    got = pv.table_residual_on(equation, f, label, point)
                    expect = reference_residual(equation, f, label, point)
                    assert got == expect, (case, label, point)
                    assert type(got) is type(expect), (case, label, point)
                    types.add(type(got))
                    member_nonzero = member_nonzero or (f is member and got != 0)
                view = pv.fraction_view(equation.fold(point))
                assert view == _nonzero(reference_stencil(equation, point)), (case, point)
        # members zero the printed equations and not every mutated one
        assert member_nonzero == mutated, case
    linear = spec.lattices()[0].kind == lo.LatticeSpec.LINEAR
    assert types == ({Fraction, GaussianRational} if linear else {Fraction})


@pytest.mark.parametrize("kind", sorted(ENGINE_LATTICES))
@pytest.mark.parametrize("nvars", [2, 3])
def test_stencil_weights_match_the_fraction_contraction(kind, nvars):
    lattices = ENGINE_LATTICES[kind][:nvars]
    for point in (PTS3[0][:nvars], PTS3[1][:nvars]):
        for lindex in product(range(3), repeat=nvars):
            reference = reference_fold(lattices, point, [(Fraction(1), lindex)])
            assert pv.stencil_weights(lattices, lindex, point) == _nonzero(reference)
        terms = [(Fraction(k + 1, 3) + (GaussianRational(0, k) if k % 2 else 0), lindex)
                 for k, lindex in enumerate(product(range(3), repeat=nvars))]
        folded = pv.fold_terms(lattices, point, terms)
        assert pv.fraction_view(folded) == _nonzero(reference_fold(lattices, point, terms))


def test_a_form_ignores_its_other_variables_singular_points():
    # racah-x acts on x only: where a D^2 denominator of y vanishes (at t
    # itself, or at t +- 1/2 for the inner D) the form still checks, since no
    # operator with a nonzero coefficient asks for y's entries
    spec = fam.FamilySpec(fam.RACAH)
    form = pv.second_order_equation("racah-x", spec)
    beta2 = spec.params["beta2"]
    for t in (-beta2 / 2, (-beta2 - 1) / 2, (-beta2 + 1) / 2):
        point = (Fraction(8, 7), t)
        with pytest.raises(SingularPointError):
            pv.stencil_weights(spec.lattices(), (0, 2), point)
        for label in [(1, 0), (2, 1)]:
            assert pv.residual(form, spec, label, point) == 0


def test_a_zero_coefficient_builds_no_axis_entry():
    # at s = -beta1/2 only the outer D^2 denominator in x vanishes: S D in x
    # (f7 nonzero) is built there, D^2 in x (f5 zero at the point) is not
    spec = fam.FamilySpec(fam.RACAH)
    lattices = spec.lattices()
    s = -spec.params["beta1"] / 2
    point = (s, Fraction(16, 7))
    x, y = MPoly.var(0, 2), MPoly.var(1, 2)
    x0 = lo.lattice_value(lattices[0], s)
    zero = MPoly.zero(2)
    coeffs = [zero] * 4 + [(x - x0) * (x - x0), y + 1, x + 2, y + 3]
    table = pv.CoeffTable(coeffs, lambda label: 5, lattices)
    latpt = table.lattice_point(point)
    expect = 5 * _rational_function(point) + sum(
        fi.eval(latpt) * _nested_mixed(lattices, lind, _rational_function, point)
        for fi, lind in zip(coeffs[5:], ((0, 2), (1, 0), (0, 1)))
    )
    assert pv.table_residual_on(table, _rational_function, (1, 1), point) == expect
    with pytest.raises(SingularPointError, match=f"vanishes at {s} on"):
        pv.stencil_weights(lattices, (2, 0), point)


def test_two_singular_denominators_raise_the_first_one_met():
    # operator by operator, last variable first: the printed table's first
    # operator E(2,2) meets y's outer D^2 denominator before x's inner one;
    # a table whose first nonzero operator is E(2,0) meets x's first
    spec = fam.FamilySpec(fam.RACAH)
    lattices = spec.lattices()
    s = (-spec.params["beta1"] - 1) / 2
    t = -spec.params["beta2"] / 2
    point = (s, t)
    table = pv.coefficients(spec)
    with pytest.raises(SingularPointError) as err:
        pv.residual(table, spec, (1, 1), point)
    assert str(err.value) == f"stencil denominator vanishes at {t} on {lattices[1]!r}"
    one, zero = MPoly.const(2, 1), MPoly.zero(2)
    x_first = pv.CoeffTable([zero] * 4 + [one, one, zero, zero], lambda label: 5, lattices)
    with pytest.raises(SingularPointError) as err:
        pv.table_residual_on(x_first, _rational_function, (1, 1), point)
    assert str(err.value) == f"stencil denominator vanishes at {s + Fraction(1, 2)} on {lattices[0]!r}"


@pytest.mark.parametrize("name, degree, grid_size, entries", [
    (fam.RACAH, 1, None, 2 * 6 * 2),
    (fam.WILSON, 2, None, 2 * 7 * 2),
    (fam.CH_TRI, 1, 2, 3 * 2 * 2),
])
def test_a_sweep_builds_each_axis_entry_once(monkeypatch, name, degree, grid_size, entries):
    # an S D or D^2 entry depends on (variable, coordinate, entry) only: a
    # sweep builds each once, not once per grid point
    calls = []
    build = pv._axis_entry

    def counted(lattice, s, l):
        calls.append((lattice.name, s, l))
        return build(lattice, s, l)

    monkeypatch.setattr(pv, "_axis_entry", counted)
    reports = pv.verify_table(fam.FamilySpec(name), degree, grid_size=grid_size)
    assert all(r["pass"] for r in reports)
    assert len(calls) == len(set(calls)) == entries


# -- the integer axis entries against the field ones ---------------------------------
# The entries used to be formed in field arithmetic from field reciprocals;
# tests/basis_reference.py keeps that form as the reference.

AXIS_LATTICES = {
    "racah-x": fam.FamilySpec(fam.RACAH).lattices()[0],
    "racah-y": fam.FamilySpec(fam.RACAH).lattices()[1],
    "quadratic-negative": lo.quadratic(Fraction(-7, 4)),
    "wilson": lo.wilson_square(),
    "linear": lo.linear(),
}


def _axis_coordinates(lattice, seed):
    """Real coordinates: the lattice's proof-grid axis and draws of both signs."""
    rng = random.Random(seed)
    return lo.grid_points(lattice, 6) + [
        Fraction(rng.randint(-30, 30), rng.randint(1, 9)) for _ in range(30)
    ]


def _entry_or_error(build, lattice, s, l):
    try:
        return build(lattice, s, l)
    except SingularPointError as err:
        return ("raised", str(err))


@pytest.mark.parametrize("name", sorted(AXIS_LATTICES))
@pytest.mark.parametrize("l", [1, 2])
def test_integer_axis_entries_are_the_field_entries(name, l):
    # each weight (A + Bi) / den has the field weight's value, over the same
    # least common denominator; the coordinates are the same field values,
    # Gaussian one half step off the real axis on the Wilson and linear
    # lattices
    lattice = AXIS_LATTICES[name]
    for s in _axis_coordinates(lattice, 43 + l):
        got = _entry_or_error(pv._axis_entry, lattice, s, l)
        want = _entry_or_error(basis_reference.axis_entry, lattice, s, l)
        if want[0] == "raised":
            assert got == want, s
            continue
        (den, weights, coords), (rden, rweights, rcoords) = got, want
        assert den > 0 and den == rden, s
        assert sorted(weights) == sorted(rweights), s
        for o, (a, b) in weights.items():
            assert from_parts(den, a, b) == from_parts(rden, *rweights[o]), (s, o)
        assert coords == rcoords, s
        if lattice.kind != lo.LatticeSpec.QUADRATIC:
            up = lo.shifted_points(lattice, s)[0]
            assert isinstance(up, GaussianRational) and up.im, s


def _singular_coordinates(lattice):
    """Coordinates at which one D denominator of an axis entry vanishes:
    the inner one at s + 1/2, the inner one at s - 1/2, D^2's outer one at
    s, then a point where none does."""
    if lattice.kind == lo.LatticeSpec.QUADRATIC:
        beta = lattice.beta
        return [(-beta - 1) / 2, (1 - beta) / 2, -beta / 2, Fraction(8, 7)]
    if lattice.kind == lo.LatticeSpec.WILSON:
        half_i = GaussianRational(0, Fraction(1, 2))
        return [-half_i, half_i, Fraction(0), Fraction(8, 7)]
    return [Fraction(0), Fraction(8, 7)]


@pytest.mark.parametrize("name", sorted(AXIS_LATTICES))
def test_integer_axis_entries_raise_as_the_field_entries(name):
    # the same exception with the same message, naming the one point where a
    # denominator vanishes (at most one of the three does at a coordinate);
    # S D never tests D^2's outer one
    lattice = AXIS_LATTICES[name]
    raised = []
    for s in _singular_coordinates(lattice):
        for l in (1, 2):
            got = _entry_or_error(pv._axis_entry, lattice, s, l)
            assert got == _entry_or_error(basis_reference.axis_entry, lattice, s, l), (s, l)
            if got[0] == "raised":
                raised.append((s, l, got[1]))
    if lattice.kind == lo.LatticeSpec.LINEAR:
        assert raised == []
        return
    up_s, down_s, outer_s = _singular_coordinates(lattice)[:3]
    up, down = lo.shifted_points(lattice, up_s)[0], lo.shifted_points(lattice, down_s)[1]
    vanish = "stencil denominator vanishes at {} on " + repr(lattice)
    assert raised == [
        (up_s, 1, vanish.format(up)), (up_s, 2, vanish.format(up)),
        (down_s, 1, vanish.format(down)), (down_s, 2, vanish.format(down)),
        (outer_s, 2, vanish.format(outer_s)),
    ]


def _counted_candidates(monkeypatch):
    """A Counter of the (lattice, coordinate) candidates the grid filter is
    asked about from here on."""
    calls = Counter()
    check = lo._nonsingular

    def counted(lattice, s):
        calls[(lattice, s)] += 1
        return check(lattice, s)

    monkeypatch.setattr(lo, "_nonsingular", counted)
    return calls


@pytest.mark.parametrize("family", [fam.RACAH, fam.WILSON, fam.CH])
def test_a_spec_examines_each_grid_candidate_once(monkeypatch, family):
    # a sweep's labels and the oracle's degrees ask for growing grids; each
    # reads the spec's kept axes, so every candidate is examined once per
    # axis, as one grid of the largest size examines it
    calls = _counted_candidates(monkeypatch)
    lattices = fam.FamilySpec(family).lattices()

    def largest_grid(count):
        calls.clear()
        lo.grid_axes(lattices, count)
        return Counter(calls)

    code, report = run(["verify-pde", "--family", family, "--max-total-degree", "3"])
    assert code == 0 and all(r["pass"] for r in report["results"])
    sweep = Counter(calls)
    assert sweep == largest_grid(3 + 5)
    calls.clear()
    spec = fam.FamilySpec(family)
    for n in range(5):
        ttrr.family_poly_vector(spec, n)
    oracle = Counter(calls)
    assert oracle == largest_grid(4 + 2)
    # only the two axes of one lattice (wilson's, ch's) share candidates
    assert max(sweep.values()) == max(oracle.values()) == (1 if family == fam.RACAH else 2)


# -- a table's fold from per-coordinate rows ------------------------------------------

def _pointwise_fold(table, point):
    """The table's stencil at the point from its f_i there: each f_i
    evaluated, a zero one skipped, and the rest folded at power 0."""
    latpt = table.lattice_point(point)
    terms = [(c, lind) for fi, lind in zip(table.coeffs, table.lindices) if (c := fi.eval(latpt))]
    return pv.fraction_view(pv.fold_terms(table.lattices, point, terms))


def _fold_case(case):
    """(table, grid axes): a printed table and its derived tables on the
    degree-3 grid, a second-order form on its family's, or ch-tri on 3^3."""
    name, _, which = case.partition(":")
    if name in pv.SECOND_ORDER_FORMS:
        spec = fam.FamilySpec(pv.SECOND_ORDER_FORMS[name][0])
        return pv.second_order_equation(name, spec), pv.residual_grid(spec, (3, 0))
    spec = fam.FamilySpec(name)
    if name == fam.CH_TRI:
        return pv.coefficients(spec), pv.residual_grid(spec, (0, 0, 0), size=3)
    table = pv.coefficients(spec)
    if which:
        table = pv.derived_coefficients(table, which)
    return table, pv.residual_grid(spec, (3, 0))


FOLD_CASES = [
    f"{name}{which}"
    for name in (fam.RACAH, fam.WILSON, fam.CDH, fam.CH)
    for which in ("", ":x", ":y", ":xy")
] + sorted(pv.SECOND_ORDER_FORMS) + [fam.CH_TRI]


@pytest.mark.parametrize("case", FOLD_CASES)
def test_table_fold_matches_the_pointwise_fold(case):
    # the stencil contracted from the table's rows and kept suffixes equals,
    # weight for weight, the one folded from the f_i evaluated at the point,
    # and the field-arithmetic contraction, which shares no row with either
    table, axes = _fold_case(case)
    grid = list(product(*axes))
    assert len(grid) == (64 if table.nvars == 2 else 27)
    for point in grid:
        folded = pv.fraction_view(table.fold(point))
        assert folded == _pointwise_fold(table, point), point
        assert folded == _nonzero(reference_stencil(table, point)), point
    assert None not in table._rows.values()


@pytest.mark.parametrize("name", [fam.RACAH, fam.CH])
def test_a_row_where_the_lattice_value_is_zero(name):
    # x(0) = 0 on the quadratic and linear lattices: every power a > 0 of the
    # row weighs nothing there, and the stencil is still the pointwise one
    spec = fam.FamilySpec(name)
    table = pv.coefficients(spec)
    for point in ((Fraction(0), Fraction(16, 7)), (Fraction(8, 7), Fraction(0))):
        assert lo.lattice_value(spec.lattices()[0], point[0]) * lo.lattice_value(
            spec.lattices()[1], point[1]) == 0
        folded = pv.fraction_view(table.fold(point))
        assert folded == _pointwise_fold(table, point) == _nonzero(reference_stencil(table, point))


def _singular_row_table(f5):
    """A Racah-lattice table with f5 beside E(2,0), where x's D^2 outer
    denominator vanishes at s = -beta1/2, and f8 beside E(0,1)."""
    lattices = fam.FamilySpec(fam.RACAH).lattices()
    zero, y = MPoly.zero(2), MPoly.var(1, 2)
    coeffs = [zero] * 4 + [f5, zero, zero, y + 3]
    return pv.CoeffTable(coeffs, lambda label: 5, lattices)


def test_a_singular_row_folds_its_points_from_their_coefficients():
    # x's row at s would need the singular D^2 entry: a point on s folds from
    # its f_i there, and f5 = x - x(s) vanishes, so E(2,0) is skipped; a point
    # off s is contracted from its rows
    spec = fam.FamilySpec(fam.RACAH)
    s = -spec.params["beta1"] / 2
    table = _singular_row_table(MPoly.var(0, 2) - lo.lattice_value(spec.lattices()[0], s))
    for point in ((s, Fraction(16, 7)), (s, Fraction(23, 7)), (Fraction(8, 7), Fraction(16, 7))):
        assert pv.fraction_view(table.fold(point)) == _pointwise_fold(table, point)
    assert table._rows[(0, s)] is None
    assert table._rows[(0, Fraction(8, 7))] is not None
    point = (s, Fraction(16, 7))
    f8 = table.coeffs[7].eval(table.lattice_point(point))
    assert pv.table_residual_on(table, _rational_function, (1, 1), point) == (
        5 * _rational_function(point)
        + f8 * _nested_mixed(table.lattices, (0, 1), _rational_function, point)
    )


def test_a_singular_row_with_a_nonzero_coefficient_raises_as_before():
    # f5 = x + 1 is nonzero at s: the point raises the pointwise engine's
    # message for x's D^2 denominator, on every point of the coordinate
    spec = fam.FamilySpec(fam.RACAH)
    s = -spec.params["beta1"] / 2
    table = _singular_row_table(MPoly.var(0, 2) + 1)
    for t in (Fraction(16, 7), Fraction(23, 7)):
        with pytest.raises(SingularPointError) as err:
            table.fold((s, t))
        assert str(err.value) == f"stencil denominator vanishes at {s} on {spec.lattices()[0]!r}"
    assert table._rows[(0, s)] is None


def test_a_singular_row_whose_coefficients_all_vanish_folds_to_the_empty_stencil():
    # f5 = x - x(s) is the only nonzero coefficient and vanishes at s: a point
    # on the singular row folds no pair, so its stencil is empty and the
    # residual is lambda P alone
    spec = fam.FamilySpec(fam.RACAH)
    lattices = spec.lattices()
    s = -spec.params["beta1"] / 2
    zero = MPoly.zero(2)
    f5 = MPoly.var(0, 2) - lo.lattice_value(lattices[0], s)
    table = pv.CoeffTable([zero] * 4 + [f5, zero, zero, zero], lambda label: 5, lattices)
    for t in (Fraction(16, 7), Fraction(23, 7)):
        point = (s, t)
        assert table.fold(point)[1] == {}
        assert pv.table_residual_on(table, _rational_function, (1, 1), point) == (
            5 * _rational_function(point)
        )
    assert table._rows[(0, s)] is None
    assert pv.fold_terms(lattices, [s, Fraction(16, 7)], []) == (1, {})


@pytest.mark.parametrize("name, degree, grid_size, rows, suffixes", [
    (fam.RACAH, 1, None, [6, 6], [6]),
    (fam.CH_TRI, 1, 2, [2, 2, 2], [2, 4]),
])
def test_a_sweep_builds_each_row_and_suffix_once(monkeypatch, name, degree, grid_size, rows,
                                                  suffixes):
    # a row depends on (variable, coordinate), the contraction of the later
    # variables on their coordinates only: a sweep builds each once, and
    # evaluates no coefficient at a point
    built, tables, evaluated = [], [], []
    row, coefficients, evaluate = pv._axis_row, pv.coefficients, fbasis.MPoly.eval

    def counted_row(lattice, s, keys, entry):
        built.append((lattice.name, s))
        return row(lattice, s, keys, entry)

    def kept(spec):
        tables.append(coefficients(spec))
        return tables[-1]

    def counted_eval(self, point):
        evaluated.append(point)
        return evaluate(self, point)

    monkeypatch.setattr(pv, "_axis_row", counted_row)
    monkeypatch.setattr(pv, "coefficients", kept)
    monkeypatch.setattr(fbasis.MPoly, "eval", counted_eval)
    spec = fam.FamilySpec(name)
    reports = pv.verify_table(spec, degree, grid_size=grid_size)
    assert all(r["pass"] for r in reports)
    assert len(built) == len(set(built))
    assert [sum(n == lattice.name for n, _ in built) for lattice in spec.lattices()] == rows
    (table,) = tables
    assert [sum(len(k) == n for k in table._suffixes) for n in range(1, spec.nvars)] == suffixes
    assert evaluated == []


# -- the symbolic table action -------------------------------------------------------

def _random_poly(nvars, seed):
    # total degree <= 4, small rational coefficients
    rng = random.Random(seed)
    return MPoly(nvars, {
        exps: Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        for exps in product(range(5), repeat=nvars)
        if sum(exps) <= 4
    })


def _composed_table_action(table, p):
    """sum f_i E_i p, every operator applied as its own poly_D / poly_S chain."""
    out = MPoly.zero(table.nvars)
    for fi, lind in zip(table.coeffs, table.lindices):
        q = p
        for var, l in enumerate(lind):
            lattice = table.lattices[var]
            if l:
                q = poly_D(q, var, lattice)
                q = poly_D(q, var, lattice) if l == 2 else poly_S(q, var, lattice)
        out = out + fi * q
    return out


SYMBOLIC_TABLES = [fam.RACAH, fam.WILSON, fam.CDH, fam.CH, fam.CH_TRI]


@pytest.mark.parametrize("name", SYMBOLIC_TABLES)
def test_table_action_matches_operator_by_operator_composition(name):
    table = pv.coefficients(fam.FamilySpec(name))
    p = _random_poly(table.nvars, seed=41)
    image = pv.table_action(table, p)
    assert not image.is_zero()
    assert image == _composed_table_action(table, p)


@pytest.mark.parametrize("name", SYMBOLIC_TABLES)
def test_table_action_matches_pointwise_residual(name):
    # the symbolic and the pointwise route apply the same table to the same p
    spec = fam.FamilySpec(name)
    table = pv.coefficients(spec)
    p = _random_poly(table.nvars, seed=43)
    image = pv.table_action(table, p)
    f_p = lambda q: p.eval(table.lattice_point(q))
    label = (1,) * spec.nvars
    lam = table.eigenvalue(label)
    for point in product(*pv.residual_grid(spec, label, size=2)):
        latpt = table.lattice_point(point)
        expect = image.eval(latpt) + lam * p.eval(latpt)
        assert expect != 0
        assert pv.table_residual_on(table, f_p, label, point) == expect, point


def _typed_images(images):
    return {e: {q: (c, type(c)) for q, c in image.coeffs.items()} for e, image in images.items()}


def _monomials(nvars, top):
    return [e for e in product(range(top + 1), repeat=nvars) if sum(e) <= top]


@pytest.mark.parametrize("draw", ["default", "bench"])
@pytest.mark.parametrize("name", fam.ALL_FAMILIES)
def test_operator_images_match_the_horner_route(name, draw):
    # every monomial up to degree 4 (6 on the trivariate table), in value and
    # in coefficient type, against each operator applied by poly_D / poly_S
    params = None if draw == "default" else _bench_params(name, seed=len(name))
    table = pv.coefficients(fam.FamilySpec(name, params=params))
    top = 6 if table.nvars == 3 else 4
    images = pv.operator_images(table, top)
    assert sorted(images) == sorted(_monomials(table.nvars, top))
    want = {e: _composed_table_action(table, MPoly(table.nvars, {e: Fraction(1)})) for e in images}
    assert _typed_images(images) == _typed_images(want)


def test_an_image_coefficient_whose_imaginary_parts_cancel_stays_gaussian():
    # on the linear lattice D^2 x^3 = 6x and S D x^3 = 3x^2 - 1, so with
    # f5 = 1 + i beside E(2,0) and f7 = 6i x beside E(1,0) the image of x^3
    # has 6 + 6i - 6i = 6 at x: real, yet reached by Gaussian coefficients,
    # so the Horner route's MPoly sums keep it a GaussianRational
    coeffs = [MPoly.zero(2)] * 8
    coeffs[4] = MPoly.const(2, GaussianRational(1, 1))
    coeffs[6] = MPoly(2, {(1, 0): GaussianRational(0, 6)})
    table = pv.CoeffTable(coeffs, lambda label: Fraction(0), (lo.linear(), lo.linear("y")))
    image = pv.operator_images(table, 3)[(3, 0)]
    assert image.coeffs[(1, 0)] == 6 and type(image.coeffs[(1, 0)]) is GaussianRational
    want = _composed_table_action(table, MPoly(2, {(3, 0): Fraction(1)}))
    assert _typed_images({(3, 0): image}) == _typed_images({(3, 0): want})


def test_a_coefficient_typo_changes_the_images_and_the_derived_s_n():
    spec = fam.FamilySpec(fam.WILSON)
    table = pv.coefficients(spec)
    typo = _typo(table, (1, 0))
    images, typo_images = pv.operator_images(table, 3), pv.operator_images(typo, 3)
    # 1/1000 E(1,0) x^e = 1/1000 S D x^e, nonzero exactly when x appears
    assert [e for e in images if images[e] != typo_images[e]] == [
        e for e in images if e[0]
    ]
    for n in (1, 2, 3):
        s_n, t_n = ttrr.sn_tn_derived(spec, n, table=table)
        typo_s_n, typo_t_n = ttrr.sn_tn_derived(spec, n, table=typo)
        assert typo_s_n != s_n, n


def test_a_mutated_image_does_not_change_the_next_call():
    spec = fam.FamilySpec(fam.CH)
    table = pv.coefficients(spec)
    want = _typed_images(pv.operator_images(pv.coefficients(spec), 3))
    first = pv.operator_images(table, 3)
    for image in first.values():
        image.coeffs.clear()
    first[(1, 1)].coeffs[(0, 0)] = Fraction(7)
    assert _typed_images(pv.operator_images(table, 3)) == want
    p = MPoly(2, {(2, 1): Fraction(3), (0, 1): Fraction(-1, 2)})
    pv.table_action(table, p).coeffs.clear()
    assert pv.table_action(table, p) == _composed_table_action(table, p)


def test_the_symbolic_state_grows_only_with_the_degree_asked(monkeypatch):
    # the symbolic route reads neither the pointwise terms nor the rows
    def pointwise(*args):
        raise AssertionError("the symbolic route read pointwise state")

    monkeypatch.setattr(pv, "_table_terms", pointwise)
    monkeypatch.setattr(pv, "_axis_row", pointwise)
    table = pv.coefficients(fam.FamilySpec(fam.RACAH))
    kept = lambda: [len(table._univariate.get(lattice, ())) for lattice in table.lattices]
    assert table._split is None and kept() == [0, 0]
    pv.operator_images(table, 2)
    assert kept() == [3, 3]
    split = table._split
    pv.operator_images(table, 1)
    pv.table_action(table, MPoly(2, {(0, 2): Fraction(1)}))
    assert kept() == [3, 3] and table._split is split
    table.images([(4, 1)])
    assert kept() == [5, 3]
    pv.operator_images(table, 5)
    assert kept() == [6, 6]
    assert table._terms is None and table._rows == {}
    # the three variables of ch-tri share their one lattice's images
    trivariate = pv.coefficients(fam.FamilySpec(fam.CH_TRI))
    trivariate.images([(4, 0, 1)])
    assert [len(images) for images in trivariate._univariate.values()] == [5]


# -- the symbolic route on family members ----------------------------------------------

def _symbolic_failures(spec, table, max_degree=4):
    """The labels (n - k, k), n <= max_degree, whose interpolated member P
    leaves table_action(table, P) + lambda(label) P nonzero."""
    failing = []
    for n in range(max_degree + 1):
        for k, p in enumerate(ttrr.family_poly_vector(spec, n)):
            label = (n - k, k)
            if not (pv.table_action(table, p) + p * table.eigenvalue(label)).is_zero():
                failing.append(label)
    return failing


@pytest.mark.parametrize("name", [n for n in fam.ALL_FAMILIES if n != fam.CH_TRI])
def test_printed_tables_annihilate_members_symbolically(name):
    # degree 4 reaches f1 (E(2,2)), which every member of degree <= 3 escapes
    spec = fam.FamilySpec(name)
    assert _symbolic_failures(spec, pv.coefficients(spec)) == []


@pytest.mark.parametrize("kind", sorted(pv.SECOND_ORDER_FORMS))
def test_second_order_forms_annihilate_members_symbolically(kind):
    spec = fam.FamilySpec(pv.SECOND_ORDER_FORMS[kind][0])
    assert _symbolic_failures(spec, pv.second_order_equation(kind, spec)) == []


@pytest.mark.parametrize("index, max_degree, failing", [
    (0, 4, [(4, 0), (3, 1), (2, 2)]),
    # the labels the pinned pointwise sweep of the same typo reports
    (2, 3, [(3, 0), (2, 1)]),
])
def test_symbolic_route_catches_table_typos(monkeypatch, index, max_degree, failing):
    # a +1/1000 typo in Wilson f1 first shows at degree 4, one in f3 at degree 3
    printed = pv.wilson_table

    def typo(params):
        coeffs, eigenvalue = printed(params)
        coeffs[index] = coeffs[index] + Fraction(1, 1000)
        return coeffs, eigenvalue

    monkeypatch.setitem(pv._TABLE_BUILDERS, fam.WILSON, typo)
    spec = fam.FamilySpec(fam.WILSON)
    assert _symbolic_failures(spec, pv.coefficients(spec), max_degree) == failing


def _patched_wilson_x(monkeypatch, tau_change):
    family, var, form, eigenvalue = pv.SECOND_ORDER_FORMS["wilson-x"]

    def changed(params, x, y):
        phi, tau = form(params, x, y)
        return phi, tau + tau_change(x)

    monkeypatch.setitem(pv.SECOND_ORDER_FORMS, "wilson-x", (family, var, changed, eigenvalue))


def test_symbolic_route_catches_a_form_typo(monkeypatch):
    _patched_wilson_x(monkeypatch, lambda x: Fraction(1, 1000))
    spec = fam.FamilySpec(fam.WILSON)
    table = pv.second_order_equation("wilson-x", spec)
    assert _symbolic_failures(spec, table, 2) == [(1, 0), (2, 0), (1, 1)]


def test_form_beyond_its_degree_bound_is_rejected_when_built(monkeypatch):
    # deg tau <= 1 makes a verify-second-order PASS a proof
    _patched_wilson_x(monkeypatch, lambda x: x * x)
    with pytest.raises(AssertionError, match="exceeds degree 1"):
        pv.second_order_equation("wilson-x", fam.FamilySpec(fam.WILSON))
    code, report = run(["verify-second-order", "--family", "wilson"])
    assert code == EXIT_MISMATCH
    assert "exceeds degree 1" in report["error"]


# -- derived tables --------------------------------------------------------------

def test_derived_tables_annihilate_derivatives():
    spec = fam.FamilySpec(fam.RACAH)
    base = pv.coefficients(spec)
    for direction in ("x", "y", "xy"):
        table = pv.derived_coefficients(base, direction)
        for label in [(1, 1), (2, 1)]:
            dfun = pv.derivative_function(spec, label, direction)
            for pt in PTS2:
                assert pv.table_residual_on(table, dfun, label, pt) == 0


@pytest.mark.parametrize("name", [fam.WILSON, fam.WILSON_BAR, fam.CDH, fam.CH, fam.CH_BAR])
def test_derived_tables_on_wilson_and_linear_lattices(name):
    # the derived-table rules take epsilon from the lattice: -1 on the Wilson
    # square lattice and 0 on the linear one (Racah's +1 is tested above)
    spec = fam.FamilySpec(name)
    base = pv.coefficients(spec)
    for direction in ("x", "y", "xy"):
        table = pv.derived_coefficients(base, direction)
        for label in [(1, 1), (2, 1)]:
            dfun = pv.derivative_function(spec, label, direction)
            for pt in product(*pv.residual_grid(spec, label, size=2)):
                value = pv.table_residual_on(table, dfun, label, pt)
                assert value == 0, (direction, label, pt, value)


def test_derived_tables_equal_parameter_shifted_tables():
    spec = fam.FamilySpec(fam.RACAH)
    base = pv.coefficients(spec)
    b1, b2 = spec.params["beta1"], spec.params["beta2"]
    dx = pv.derived_coefficients(base, "x")
    shifted = pv.coefficients(spec.shifted(beta1=1, beta2=2, beta3=2, N=-1))
    for i in range(8):
        expect = shifted.coeffs[i].shift_var(0, -(2 * b1 + 1) / 4).shift_var(1, -(b2 + 1))
        assert (dx.coeffs[i] - expect).is_zero()
    dy = pv.derived_coefficients(base, "y")
    shifted2 = pv.coefficients(spec.shifted(beta2=1, beta3=2, N=-1))
    for i in range(8):
        expect = shifted2.coeffs[i].shift_var(1, -(2 * b2 + 1) / 4)
        assert (dy.coeffs[i] - expect).is_zero()


def test_wilson_derived_tables_are_pure_parameter_shifts():
    spec = fam.FamilySpec(fam.WILSON)
    base = pv.coefficients(spec)
    half = Fraction(1, 2)
    dx = pv.derived_coefficients(base, "x")
    for i, fi in enumerate(pv.coefficients(spec.shifted(a=half, b=half, e2=half)).coeffs):
        assert (dx.coeffs[i] - fi).is_zero()
    dy = pv.derived_coefficients(base, "y")
    for i, fi in enumerate(pv.coefficients(spec.shifted(c=half, d=half, e2=half)).coeffs):
        assert (dy.coeffs[i] - fi).is_zero()


def test_eigenvalue_shift_laws():
    spec = fam.FamilySpec(fam.RACAH)
    base = pv.coefficients(spec)
    b0, b3 = spec.params["beta0"], spec.params["beta3"]
    dx = pv.derived_coefficients(base, "x")
    dy = pv.derived_coefficients(base, "y")
    dxy = pv.derived_coefficients(base, "xy")
    n, m = 2, 1
    assert dx.eigenvalue((n, m)) - base.eigenvalue((n, m)) == pv.eigenvalue_shift(base, "x")
    assert dy.eigenvalue((n, m)) - base.eigenvalue((n, m)) == pv.eigenvalue_shift(base, "y")
    assert dx.eigenvalue((n, m)) == (m + n - 1) * (b3 - b0 + m + n)
    assert dxy.eigenvalue((n, m)) == (m + n - 2) * (b3 - b0 + m + n + 1)
    assert pv.eigenvalue_shift(base, "x") == b0 - b3


def test_eigenvalue_shift_rejects_other_directions():
    base = pv.coefficients(fam.FamilySpec(fam.RACAH))
    # the xy shift is not the y shift (-43/10 here): it also takes the x
    # shift of the y-derived table
    xy_shift = pv.derived_coefficients(base, "xy").eigenvalue((2, 1)) - base.eigenvalue((2, 1))
    assert xy_shift == Fraction(-53, 5) != pv.eigenvalue_shift(base, "y")
    for direction in ("xy", "z", "X", ""):
        with pytest.raises(ValueError, match="unknown direction"):
            pv.eigenvalue_shift(base, direction)


def test_f_i3_two_derivation_routes_agree():
    base = pv.coefficients(fam.FamilySpec(fam.RACAH))
    via_y_then_x = pv.derived_coefficients(base, "xy")
    via_x_then_y = pv.derived_coefficients(pv.derived_coefficients(base, "x"), "y")
    for i in range(8):
        assert (via_y_then_x.coeffs[i] - via_x_then_y.coeffs[i]).is_zero()


def reference_derived(base, direction):
    """The derived table by the printed x and y formulas, one block per
    variable; "xy" is y, then x."""
    if direction == "xy":
        return reference_derived(reference_derived(base, "y"), "x")
    var = 0 if direction == "x" else 1
    lat = base.lattices[var]
    (w0, w1), c0 = lat.shift_algebra()
    u2 = w1 * MPoly.var(var, 2) + MPoly.const(2, w0)
    eps = 2 * c0
    f1, f2, f3, f4, f5, f6, f7, f8 = base.coeffs
    D = lambda p: poly_D(p, var, lat)
    S = lambda p: poly_S(p, var, lat)
    if direction == "x":
        g8 = f8 + D(f4)
        g7 = S(f7) + eps * D(f7) + D(f5)
        g6 = f6 + D(f2)
        g5 = S(f5) + D(f7) * u2 + eps * S(f7)
        g4 = eps * D(f4) + D(f3) + S(f4)
        g3 = eps * S(f4) + S(f3) + D(f4) * u2
        g2 = eps * D(f2) + D(f1) + S(f2)
        g1 = eps * S(f2) + S(f1) + D(f2) * u2
    else:
        g8 = S(f8) + eps * D(f8) + D(f6)
        g7 = f7 + D(f4)
        g6 = D(f8) * u2 + eps * S(f8) + S(f6)
        g5 = f5 + D(f3)
        g4 = eps * D(f4) + D(f2) + S(f4)
        g3 = eps * D(f3) + D(f1) + S(f3)
        g2 = eps * S(f4) + S(f2) + D(f4) * u2
        g1 = eps * S(f3) + S(f1) + D(f3) * u2
    shift = poly_D(base.coeffs[6 + var], var, lat).coeff((0, 0))
    lam = lambda label: base.eigenvalue(label) + shift
    return pv.CoeffTable([g1, g2, g3, g4, g5, g6, g7, g8], lam, base.lattices)


@pytest.mark.parametrize("draw", ["default", "bench"])
@pytest.mark.parametrize("name", [fam.RACAH, fam.WILSON, fam.CDH, fam.CH])
def test_derived_tables_match_the_printed_x_and_y_formulas(name, draw):
    # value and type of every coefficient and of the eigenvalue, on the
    # quadratic, Wilson square and linear lattices
    params = None if draw == "default" else _bench_params(name, seed=len(name))
    base = pv.coefficients(fam.FamilySpec(name, params=params))
    for direction in ("x", "y", "xy"):
        got = pv.derived_coefficients(base, direction)
        expect = reference_derived(base, direction)
        assert got.coeffs == expect.coeffs, direction
        for gi, ei in zip(got.coeffs, expect.coeffs):
            types = lambda fi: {e: type(c) for e, c in fi.coeffs.items()}
            assert types(gi) == types(ei), direction
        for label in [(0, 0), (2, 1), (3, 4)]:
            lam, want = got.eigenvalue(label), expect.eigenvalue(label)
            assert (lam, type(lam)) == (want, type(want)), (direction, label)


def test_a_derivation_takes_one_shift_pair_per_coefficient(monkeypatch):
    # at most one (S f, D f) per coefficient, and one for the eigenvalue
    # shift, per variable of the direction
    calls = []
    original = fbasis.poly_shift_pair

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(fbasis, "poly_shift_pair", counting)
    monkeypatch.setattr(pv, "poly_shift_pair", counting)
    base = pv.coefficients(fam.FamilySpec(fam.RACAH))
    for direction, most in (("x", 9), ("y", 9), ("xy", 18)):
        calls.clear()
        pv.derived_coefficients(base, direction)
        assert 0 < len(calls) <= most, direction


# -- second-order equations --------------------------------------------------------

def test_second_order_residuals():
    cases = (
        ("racah-x", fam.RACAH),
        ("wilson-x", fam.WILSON),
        ("wilson-bar-y", fam.WILSON_BAR),
        ("cdh-x", fam.CDH),
    )
    for kind, name in cases:
        spec = fam.FamilySpec(name)
        for label in [(1, 0), (1, 1), (2, 1)]:
            for pt in PTS2:
                assert pv.second_order_residual(kind, spec, label, pt) == 0


def test_second_order_forms_obey_the_degree_bound():
    # deg phi <= 2 beside D^2, deg tau <= 1 beside SD and a constant lambda:
    # the residual on a member of total degree k has degree <= k
    x, y = MPoly.var(0, 2), MPoly.var(1, 2)
    for kind, (family, _, form, eigenvalue) in pv.SECOND_ORDER_FORMS.items():
        params = fam.FamilySpec(family).params
        phi, tau = form(params, x, y)
        assert phi.total_degree() <= 2, kind
        assert tau.total_degree() <= 1, kind
        assert not isinstance(eigenvalue(params, 3), MPoly), kind


def test_order_follows_the_top_nonzero_operator():
    for kind, (family, *_) in pv.SECOND_ORDER_FORMS.items():
        table = pv.second_order_equation(kind, fam.FamilySpec(family))
        assert (table.order, table.to_json()["order"]) == ("second", "second"), kind
    for family in fam.ALL_FAMILIES:
        table = pv.coefficients(fam.FamilySpec(family))
        assert table.order == ("sixth" if table.nvars == 3 else "fourth"), family


def test_second_order_zero_degree_is_trivial():
    spec = fam.FamilySpec(fam.RACAH)
    for m in (0, 1, 2):
        assert pv.second_order_residual("racah-x", spec, (0, m), PTS2[0]) == 0


def test_second_order_wrong_family_rejected():
    with pytest.raises(ValueError, match="racah-x applies to the racah family"):
        pv.second_order_residual("racah-x", fam.FamilySpec(fam.WILSON), (1, 0), PTS2[0])
    with pytest.raises(ValueError, match="unknown second-order kind"):
        pv.second_order_residual("ch-x", fam.FamilySpec(fam.CH), (1, 0), PTS2[0])


def test_difference_form_wrong_family_rejected():
    # a second family shares its base family's difference form, no other
    for kind, name in (("wilson-f", fam.RACAH_BAR), ("ch-f", fam.WILSON_BAR), ("racah-gi", fam.CDH)):
        with pytest.raises(ValueError, match=f"{kind} does not apply to the {name} family"):
            pv.difference_form_residual(kind, fam.FamilySpec(name), (1, 1), PTS2[0])
    with pytest.raises(ValueError, match="unknown difference form"):
        pv.difference_form_residual("cdh-f", fam.FamilySpec(fam.CDH), (1, 1), PTS2[0])


# -- difference (stencil) forms ------------------------------------------------------

def test_difference_forms_vanish():
    cases = (("racah-gi", fam.RACAH), ("wilson-f", fam.WILSON), ("ch-f", fam.CH))
    for kind, name in cases:
        spec = fam.FamilySpec(name)
        for label in [(1, 0), (1, 1), (2, 1)]:
            for pt in PTS2:
                assert pv.difference_form_residual(kind, spec, label, pt) == 0


def test_printed_stencils_match_operator_expansion():
    # the printed nine-term coefficients, which leave out the eigenvalue,
    # agree with the stencil weights produced by expanding the
    # divided-difference operators directly
    for name, builder in ((fam.WILSON, pv.wilson_f_stencil), (fam.CH, pv.ch_f_stencil)):
        spec = fam.FamilySpec(name)
        table = pv.coefficients(spec)
        for pt in PTS2:
            printed = pv.fraction_view(builder(table, *pt))
            derived = {}
            latpt = table.lattice_point(pt)
            for fi, lind in zip(table.coeffs, table.lindices):
                ci = fi.eval(latpt)
                if not ci:
                    continue
                for q, w in pv.stencil_weights(table.lattices, lind, pt).items():
                    off = tuple(
                        int((qv - pv_).im if isinstance(qv - pv_, GaussianRational) else qv - pv_)
                        for qv, pv_ in zip(q, (Fraction(p) for p in pt))
                    )
                    derived[off] = derived.get(off, 0) + ci * w
            assert len(printed) == 9
            for off, val in printed.items():
                assert derived.get(off, Fraction(0)) == val, (name, off)


def test_gi_form_applies_to_second_family_too():
    spec = fam.FamilySpec(fam.RACAH_BAR)
    for pt in PTS2:
        assert pv.difference_form_residual("racah-gi", spec, (1, 1), pt) == 0


def test_difference_form_singular_point_error():
    # each form checks its one stated denominator, in either variable
    spec = fam.FamilySpec(fam.RACAH)
    bad_s = -spec.params["beta1"] / 2
    bad_t = -spec.params["beta2"] / 2
    with pytest.raises(SingularPointError):
        pv.difference_form_residual("racah-gi", spec, (1, 1), (bad_s, Fraction(16, 7)))
    with pytest.raises(SingularPointError):
        pv.difference_form_residual("racah-gi", spec, (1, 1), (Fraction(8, 7), bad_t))
    wilson = fam.FamilySpec(fam.WILSON)
    with pytest.raises(SingularPointError):
        pv.difference_form_residual("wilson-f", wilson, (1, 1), (Fraction(0), Fraction(1)))
    with pytest.raises(SingularPointError):
        pv.difference_form_residual("wilson-f", wilson, (1, 1), (Fraction(1), Fraction(0)))


NINE_TERM_CASES = [
    ("racah-gi", fam.RACAH),
    ("racah-gi", fam.RACAH_BAR),
    ("wilson-f", fam.WILSON),
    ("wilson-f", fam.WILSON_BAR),
    ("ch-f", fam.CH),
    ("ch-f", fam.CH_BAR),
]


@pytest.mark.parametrize("drawn", [False, True], ids=["default", "drawn"])
@pytest.mark.parametrize("kind, name", NINE_TERM_CASES)
def test_nine_term_forms_are_their_tables(kind, name, drawn):
    # each nine-term form, its weights written as numerators over one stated
    # denominator, folds to the printed table's stencil sum f_i E_i at every
    # point of the label-(1, 1) grid, and shares the table's eigenvalue
    spec = fam.FamilySpec(name, params=_drawn_params(name) if drawn else None)
    form, table = pv.difference_form_equation(kind, spec), pv.coefficients(spec)
    points = list(product(*pv.residual_grid(spec, (1, 1))))
    assert len(points) == 49
    for pt in points:
        assert pv.fraction_view(form.fold(pt)) == pv.fraction_view(table.fold(pt)), pt
    for label in [(n - k, k) for n in range(4) for k in range(n + 1)]:
        assert form.eigenvalue(label) == table.eigenvalue(label), label


@pytest.mark.parametrize("drawn", [False, True], ids=["default", "drawn"])
@pytest.mark.parametrize("name", [fam.WILSON, fam.WILSON_BAR, fam.CH, fam.CH_BAR])
def test_form_values_are_the_field_route(name, drawn):
    # the f_i read from integer powers of the lattice values are the
    # integers of MPoly.eval and integer_parts, denominator and numerators,
    # at every point of the label-(1, 1) grid
    spec = fam.FamilySpec(name, params=_drawn_params(name) if drawn else None)
    table = pv.coefficients(spec)
    points = list(product(*pv.residual_grid(spec, (1, 1))))
    assert len(points) == 49
    for pt in points:
        d, parts = pv._form_values(table, *pt)
        assert (d, parts) == basis_reference.form_values(table, *pt), pt
        assert type(d) is int and all(type(a) is int and type(b) is int for a, b in parts)


NON_REAL_POINT = (GaussianRational(Fraction(1, 3), Fraction(1, 5)), Fraction(2, 7))


@pytest.mark.parametrize("kind, name", [("racah-gi", fam.RACAH), ("wilson-f", fam.WILSON)])
def test_a_real_nine_term_form_rejects_a_non_real_point(kind, name):
    # the Racah and Wilson forms are built in real integers: a non-real point
    # raises before any arithmetic instead of dropping its imaginary part
    spec = fam.FamilySpec(name)
    assert pv.residual(pv.coefficients(spec), spec, (1, 1), NON_REAL_POINT) == 0
    with pytest.raises(ValueError, match=rf"{kind} form needs a real point.*\(1/3 \+ 1/5i\), 2/7"):
        pv.difference_form_residual(kind, spec, (1, 1), NON_REAL_POINT)


def test_the_ch_form_holds_at_a_non_real_point():
    # the continuous Hahn form is built in Gaussian integers, so it folds to
    # its table's stencil at a non-real point too
    spec = fam.FamilySpec(fam.CH)
    form, table = pv.difference_form_equation("ch-f", spec), pv.coefficients(spec)
    for pt in (NON_REAL_POINT, NON_REAL_POINT[::-1]):
        assert pv.fraction_view(form.fold(pt)) == pv.fraction_view(table.fold(pt)), pt
        assert pv.difference_form_residual("ch-f", spec, (1, 1), pt) == 0


def _common_denominator(values):
    parts = [(v.re, v.im) if isinstance(v, GaussianRational) else (v, 0) for v in values]
    return math.lcm(*(Fraction(p).denominator for pair in parts for p in pair))


NINE_TERM_POINTS = [PTS2[0], PTS2[1], (Fraction(-8, 7), Fraction(9, 7))]


@pytest.mark.parametrize("name", [fam.RACAH, fam.WILSON, fam.CH])
def test_nine_term_builders_return_their_stated_denominator(name):
    # each builder's den is the denominator its docstring states, written as
    # integers over the common denominator d of the point and its inputs
    spec = fam.FamilySpec(name)
    p = spec.params
    table = pv.coefficients(spec)
    for s, t in NINE_TERM_POINTS:
        if name == fam.RACAH:
            den, weights = pv.racah_gi_stencil(p, s, t)
            d = _common_denominator([s, t, *(p[k] for k in ("beta0", "beta1", "beta2", "beta3", "N"))])
            b1, b2 = p["beta1"], p["beta2"]
            stated = 1
            for k in (-1, 0, 1):
                stated *= (b1 + 2 * s + k) * (b2 + 2 * t + k)
            expect = stated * d ** 8
        else:
            builder = pv.wilson_f_stencil if name == fam.WILSON else pv.ch_f_stencil
            den, weights = builder(table, s, t)
            latpt = table.lattice_point((s, t))
            d = _common_denominator([s, t, *(fi.eval(latpt) for fi in table.coeffs)])
            if name == fam.WILSON:
                expect = 4 * s * t * (4 * s * s + 1) * (4 * t * t + 1) * d ** 6
            else:
                expect = 4 * d
        assert type(den) is int and den == expect, (name, s, t)
        assert len(weights) == 9
        assert all(type(a) is int and type(b) is int for a, b in weights.values())


def test_a_negative_stated_denominator_gives_the_table_stencil():
    # at x < 0 Wilson's 4xy(4x^2 + 1)(4y^2 + 1) is negative; the form still
    # folds to the table's weights
    spec = fam.FamilySpec(fam.WILSON)
    table = pv.coefficients(spec)
    pt = (Fraction(-8, 7), Fraction(9, 7))
    assert pv.wilson_f_stencil(table, *pt)[0] < 0
    form = pv.difference_form_equation("wilson-f", spec)
    assert pv.fraction_view(form.fold(pt)) == pv.fraction_view(table.fold(pt))


def test_the_racah_form_drops_its_zero_weights():
    # every weight at x-offset -1 carries the factor s, so at s = 0 (not
    # singular at the defaults) the fold keeps none of those neighbours
    spec = fam.FamilySpec(fam.RACAH)
    pt = (Fraction(0), Fraction(16, 7))
    den, weights = pv.racah_gi_stencil(spec.params, *pt)
    assert [weights[(-1, o)] for o in (-1, 0, 1)] == [(0, 0)] * 3
    stencil = pv.difference_form_equation("racah-gi", spec).fold(pt)[1]
    assert len(stencil) == 6
    assert all(q[0] != -1 for q in stencil)


# -- coefficient recovery -------------------------------------------------------------

def test_recovered_table_matches_printed_table():
    spec = fam.FamilySpec(fam.RACAH)
    recovered, eig = pv.recover_coefficients(spec.params)
    printed = pv.coefficients(spec)
    assert pv.compare_tables(recovered, printed) == []
    assert eig == 2 * (spec.params["beta3"] - spec.params["beta0"] + 1)
    # the recovered f7 as a polynomial
    p = spec.params
    f7 = recovered.coeffs[6]
    assert f7.coeff((1, 0)) == p["beta0"] - p["beta3"]
    assert f7.coeff((0, 0)) == -p["N"] * (p["beta0"] - p["beta1"]) * (p["beta3"] + p["N"])
    # closing the loop: the recovered table annihilates R_{2,2}
    for pt in PTS2:
        assert pv.residual(recovered, spec, (2, 2), pt) == 0


OFFSETS_3X3 = tuple((o1, o2) for o1 in (-1, 0, 1) for o2 in (-1, 0, 1))


def _nine_by_nine_solution(params, point):
    """The recovery's node solve as one 9 x 9 system: M^T g = c with
    M[op, q] the weight of E_op at the offset q, from stencil_weights."""
    lattices = fam.FamilySpec(fam.RACAH, params=params).lattices()
    rows = []
    for lind in pv.OP_ORDER_WITH_IDENTITY:
        weights = pv.stencil_weights(lattices, lind, point)
        rows.append([weights.get((point[0] + o1, point[1] + o2), 0) for o1, o2 in OFFSETS_3X3])
    gi = pv.fraction_view(pv.racah_gi_stencil(params, *point))
    gi[(0, 0)] += pv.racah_gi_eigenvalue(params, (1, 1))
    return solve_stacked(ExactMatrix(rows).transpose(), [gi[off] for off in OFFSETS_3X3])


@pytest.mark.parametrize("drawn", [False, True], ids=["default", "drawn"])
def test_recovery_nodes_solve_the_nine_by_nine_system(monkeypatch, drawn):
    # the two axis inverses of each node give the solution of the 9 x 9
    # system M^T g = c at all 36 nodes of the recovery grid
    params = fam.FamilySpec(fam.RACAH, params=_drawn_params(fam.RACAH) if drawn else None).params
    grids = []
    interpolate = pv.interpolate_on_grid

    def recording(lattices, count, sample):
        grids.append((lattices, count, sample))
        return interpolate(lattices, count, sample)

    monkeypatch.setattr(pv, "interpolate_on_grid", recording)
    pv.recover_coefficients(params)
    ((lattices, count, sample),) = grids
    nodes = list(product(*lo.grid_axes(lattices, count)))
    assert len(nodes) == 36
    for node in nodes:
        assert sample(node) == _nine_by_nine_solution(params, node), node


@pytest.mark.parametrize("drawn", [False, True], ids=["default", "drawn"])
def test_recovery_nodes_are_the_matrix_route(monkeypatch, drawn):
    # the integer solve gives each of the nine coefficients of the two
    # ExactMatrix products in field arithmetic, value and type, at all 36
    # nodes of the recovery grid
    params = fam.FamilySpec(fam.RACAH, params=_drawn_params(fam.RACAH) if drawn else None).params
    grids = []
    interpolate = pv.interpolate_on_grid

    def recording(lattices, count, sample):
        grids.append((lattices, count, sample))
        return interpolate(lattices, count, sample)

    monkeypatch.setattr(pv, "interpolate_on_grid", recording)
    pv.recover_coefficients(params)
    ((lattices, count, sample),) = grids
    nodes = list(product(*lo.grid_axes(lattices, count)))
    assert len(nodes) == 36
    for node in nodes:
        got, want = sample(node), basis_reference.recovery_node(params, lattices, node)
        assert got == want, node
        assert [type(v) for v in got] == [type(v) for v in want], node


def test_a_singular_axis_matrix_raises(monkeypatch):
    # D^2 given the S D weights: two rows of each axis matrix agree
    entry = pv._axis_entry
    monkeypatch.setattr(pv, "_axis_entry", lambda lattice, s, l: entry(lattice, s, 1))
    with pytest.raises(ValueError, match="singular matrix"):
        pv.recover_coefficients(fam.FamilySpec(fam.RACAH).params)


# sha256 of json.dumps(table.to_json(), sort_keys=True) for every printed
# table and the Racah and Wilson derived tables: a change to how tables are
# built must leave every coefficient byte-identical
TABLE_DIGESTS = [
    (fam.RACAH, None, "be9ed03708e1e53fa80d669af51c3ce112623e77a6ed494a293e38bd5da044e7"),
    (fam.RACAH_BAR, None, "be9ed03708e1e53fa80d669af51c3ce112623e77a6ed494a293e38bd5da044e7"),
    (fam.WILSON, None, "d50ab343e3537b77a27aa66ae28448c03b49639fd02b76085e566827f25e6cec"),
    (fam.WILSON_BAR, None, "d50ab343e3537b77a27aa66ae28448c03b49639fd02b76085e566827f25e6cec"),
    (fam.CDH, None, "70d6987bd918fa01da7df2464950b71114fe20acbfaf3b237295d4c7a600ea39"),
    (fam.CH, None, "4cee4fea09a2f873366fa0e34153eb31035fc75144d4a17dcc2feaab8656a889"),
    (fam.CH_BAR, None, "4cee4fea09a2f873366fa0e34153eb31035fc75144d4a17dcc2feaab8656a889"),
    (fam.CH_TRI, None, "11d50a0a4f5995988b17ea47c58548bd34839d75620ec5683dbe21620beca643"),
    (fam.RACAH, "x", "57e29b2022fbcdc28695276b02ddfb6ba968efb0686e3fb8f3047db4abe59016"),
    (fam.RACAH, "y", "9ee700d1547fc2fd0c5fa15942eb3feb4ded1928816076c7304fbe4439d89f88"),
    (fam.RACAH, "xy", "ce7ab9c200b865e30c2c71836f4644483a1c47d60463978f5d51dbdea34c7df1"),
    (fam.WILSON, "x", "d19c937e37672e3f6ebb9a30c19f0bfaa1780cbd087c9edd08183a25bd461772"),
    (fam.WILSON, "y", "3bfa73bda799970d26edbf855fce201bc5e38e026e4180c321fc201f9ef9a831"),
    (fam.WILSON, "xy", "876c3aebd10e8f83ec2a80de5f66686574de8d9ef8c2d030dbd58941eef2b303"),
]


@pytest.mark.parametrize("name, direction, digest", TABLE_DIGESTS)
def test_table_json_matches_pinned_digest(name, direction, digest):
    table = pv.coefficients(fam.FamilySpec(name))
    if direction is not None:
        table = pv.derived_coefficients(table, direction)
    blob = json.dumps(table.to_json(), sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == digest


def test_coefficient_table_json():
    table = pv.coefficients(fam.FamilySpec(fam.CDH))
    blob = table.to_json()
    assert blob["order"] == "fourth"
    assert set(blob["coefficients"]) == {f"f{i}" for i in range(1, 9)}
    assert blob["operators"][0] == [2, 2]
