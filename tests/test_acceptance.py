"""Acceptance suite: every criterion runs at its stated scope with an
exact-zero tolerance; conftest prints one pass/fail line per criterion.
"""

import random
from fractions import Fraction
from itertools import product

from quadlattice import families as fam
from quadlattice import latticeops as lo
from quadlattice import pdeverify as pv
from quadlattice import ttrr
from quadlattice.fbasis import (
    MPoly,
    interpolate_univariate,
    operator_matrices,
)
from quadlattice.matrix import ExactMatrix

from basis_reference import basis_poly


def test_criterion_1_racah_residuals():
    for name in (fam.RACAH, fam.RACAH_BAR):
        reports = pv.verify_table(fam.FamilySpec(name), 4)
        assert len(reports) == 15
        bad = [r for r in reports if not r["pass"]]
        assert not bad, (name, bad)


def test_criterion_2_wilson_cdh_ch_residuals():
    for name in (fam.WILSON, fam.WILSON_BAR, fam.CDH, fam.CH, fam.CH_BAR):
        reports = pv.verify_table(fam.FamilySpec(name), 4)
        bad = [r for r in reports if not r["pass"]]
        assert not bad, (name, bad)
    # realness is asserted, not assumed: real-point values come back in Q
    for name in (fam.WILSON, fam.WILSON_BAR, fam.CDH):
        value = fam.eval_family(
            fam.FamilySpec(name), (2, 2), (Fraction(8, 7), Fraction(9, 7))
        )
        assert isinstance(value, Fraction)


def test_criterion_3_trivariate_residuals():
    spec = fam.FamilySpec(fam.CH_TRI)
    reports = pv.verify_table(spec, 2, grid_size=3)
    assert len(reports) == 10
    assert all(r["points"] >= 27 for r in reports)
    bad = [r for r in reports if not r["pass"]]
    assert not bad, bad


def test_criterion_4_derived_tables():
    spec = fam.FamilySpec(fam.RACAH)
    base = pv.coefficients(spec)
    labels = [(n, m) for n in range(4) for m in range(4 - n)]
    for direction in ("x", "y", "xy"):
        table = pv.derived_coefficients(base, direction)
        for label in labels:
            axes = pv.residual_grid(spec, label, size=sum(label) + 4)
            dfun = pv.derivative_function(spec, label, direction)
            for pt in product(*axes):
                value = pv.table_residual_on(table, dfun, label, pt)
                assert value == 0, (direction, label, pt, value)
    # coefficient-by-coefficient equality with the parameter-shifted tables
    b1, b2 = spec.params["beta1"], spec.params["beta2"]
    dx = pv.derived_coefficients(base, "x")
    shifted = pv.coefficients(spec.shifted(beta1=1, beta2=2, beta3=2, N=-1))
    for i in range(8):
        expect = shifted.coeffs[i].shift_var(0, -(2 * b1 + 1) / 4).shift_var(1, -(b2 + 1))
        assert (dx.coeffs[i] - expect).is_zero(), f"f{i+1}1"
    dy = pv.derived_coefficients(base, "y")
    shifted2 = pv.coefficients(spec.shifted(beta2=1, beta3=2, N=-1))
    for i in range(8):
        expect = shifted2.coeffs[i].shift_var(1, -(2 * b2 + 1) / 4)
        assert (dy.coeffs[i] - expect).is_zero(), f"f{i+1}2"
    # eigenvalue shift laws
    for label in labels:
        assert dx.eigenvalue(label) - base.eigenvalue(label) == pv.eigenvalue_shift(base, "x")
        assert dy.eigenvalue(label) - base.eigenvalue(label) == pv.eigenvalue_shift(base, "y")


def test_criterion_5_derivative_ladders():
    # D P - c P~ has total degree <= |label| - 1 in the lattice values, so
    # the (|label| + 1)^2 grid of verify-ladder proves each identity
    smallest = {0: (1, 0), 1: (0, 1)}
    checks = 0
    for name, direction in fam.LADDER_DIRECTION.items():
        spec = fam.FamilySpec(name)
        for label in (smallest[direction], (1, 1), (2, 2)):
            for pt in product(*pv.residual_grid(spec, label, size=sum(label) + 1)):
                value = fam.derivative_ladder_check(spec, label, pt)
                assert value == 0, (name, label, pt, value)
                checks += 1
    assert checks == len(fam.LADDER_DIRECTION) * (2 ** 2 + 3 ** 2 + 5 ** 2)


def test_criterion_6_recovery_oracle():
    spec = fam.FamilySpec(fam.RACAH)
    recovered, eig = pv.recover_coefficients(spec.params)
    printed = pv.coefficients(spec)
    diffs = pv.compare_tables(recovered, printed)
    assert diffs == [], [name for name, _ in diffs]
    assert eig == printed.eigenvalue((1, 1))


def test_criterion_7_second_order_and_difference_forms():
    labels = [(n, m) for n in range(4) for m in range(4 - n)]
    second_order = (
        ("racah-x", fam.RACAH),
        ("wilson-x", fam.WILSON),
        ("wilson-bar-y", fam.WILSON_BAR),
        ("cdh-x", fam.CDH),
    )
    for kind, name in second_order:
        spec = fam.FamilySpec(name)
        equation = pv.second_order_equation(kind, spec)  # folds each grid point once
        for label in labels:
            axes = pv.residual_grid(spec, label)
            for pt in product(*axes):
                value = pv.residual(equation, spec, label, pt)
                assert value == 0, (kind, label, pt, value)
    difference_forms = (
        ("racah-gi", fam.RACAH),
        ("wilson-f", fam.WILSON),
        ("ch-f", fam.CH),
    )
    for kind, name in difference_forms:
        spec = fam.FamilySpec(name)
        equation = pv.difference_form_equation(kind, spec)
        for label in labels:
            axes = pv.residual_grid(spec, label)
            for pt in product(*axes):
                value = pv.residual(equation, spec, label, pt)
                assert value == 0, (kind, label, pt, value)


def test_criterion_8_ttrr_pipeline():
    for name in ttrr.TTRR_FAMILIES:
        spec = fam.FamilySpec(name)
        vectors = ttrr.generate(spec, 4, leading="family")
        for n in range(5):
            oracle = ttrr.family_poly_vector(spec, n)
            for k in range(n + 1):
                assert (vectors[n][k] - oracle[k]).is_zero(), (name, n, k)
        monic = ttrr.generate(spec, 4, leading="monic")
        for n, vec in enumerate(monic):
            for k, p in enumerate(vec.entries):
                assert p.coeff((n - k, k)) == 1
                for c in range(n + 1):
                    if c != k:
                        assert p.coeff((n - c, c)) == 0
    pairs = ((fam.RACAH, fam.RACAH_BAR), (fam.WILSON, fam.WILSON_BAR), (fam.CH, fam.CH_BAR))
    pts = [(Fraction(8, 7), Fraction(16, 7)), (Fraction(15, 7), Fraction(23, 7))]
    for base, bar in pairs:
        spec = fam.FamilySpec(base)
        bspec = fam.FamilySpec(bar)
        for n in range(5):
            g = ttrr.leading_matrix(base, spec.params, n)
            gbar = ttrr.leading_matrix(bar, spec.params, n)
            c = ttrr.connection(g, gbar)
            assert c * ttrr.connection(gbar, g) == ExactMatrix.identity(n + 1)
            for pt in pts:
                pvals = [fam.eval_family(spec, (n - k, k), pt) for k in range(n + 1)]
                bvals = [fam.eval_family(bspec, (n - k, k), pt) for k in range(n + 1)]
                assert c.apply_rows(bvals) == pvals, (base, n, pt)


def test_criterion_9_operator_algebra():
    rng = random.Random(101)
    specs = (lo.quadratic(Fraction(2, 3)), lo.wilson_square(), lo.linear())
    eps = {lo.LatticeSpec.QUADRATIC: 1, lo.LatticeSpec.WILSON: -1, lo.LatticeSpec.LINEAR: 0}

    def rand_poly(degree):
        coeffs = {(degree,): Fraction(1)}
        for _ in range(degree + 2):
            d = rng.randint(0, degree)
            coeffs[(d,)] = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        return MPoly(1, coeffs)

    def as_fn(p, spec):
        return lambda s: p.eval((lo.lattice_value(spec, s),))

    for spec in specs:
        e = eps[spec.kind]
        for _ in range(3):
            f = rand_poly(rng.randint(1, 4))
            g = rand_poly(rng.randint(1, 4))
            fg = f * g
            for s in lo.grid_points(spec, 10):
                (q0, q1), _ = spec.shift_algebra()
                w2 = q0 + q1 * lo.lattice_value(spec, s)
                ff, gg = as_fn(f, spec), as_fn(g, spec)
                df, sf = lo.apply_D(spec, ff, s), lo.apply_S(spec, ff, s)
                dg, sg = lo.apply_D(spec, gg, s), lo.apply_S(spec, gg, s)
                assert lo.apply_D(spec, as_fn(fg, spec), s) == sf * dg + df * sg
                assert lo.apply_S(spec, as_fn(fg, spec), s) == sf * sg + w2 * df * dg
                fn = as_fn(f, spec)
                Df = lambda u: lo.apply_D(spec, fn, u)
                Sf = lambda u: lo.apply_S(spec, fn, u)
                ds = lo.apply_D(spec, Sf, s)
                sd = lo.apply_S(spec, Df, s)
                d2 = lo.apply_D(spec, Df, s)
                s2 = lo.apply_S(spec, Sf, s)
                assert ds == sd + Fraction(e, 2) * d2
                assert s2 == Fraction(e, 2) * sd + w2 * d2 + fn(s)
        # degree raising/lowering by interpolation
        for degree in (1, 2, 3, 4):
            p = rand_poly(degree)
            pts = lo.grid_points(spec, degree + 2)
            xs = [lo.lattice_value(spec, s) for s in pts]
            dco = interpolate_univariate(xs, [lo.apply_D(spec, as_fn(p, spec), s) for s in pts])
            sco = interpolate_univariate(xs, [lo.apply_S(spec, as_fn(p, spec), s) for s in pts])
            assert all(c == 0 for c in dco[degree:]) and dco[degree - 1] != 0
            assert sco[degree] != 0

    # coefficient-space operator action == pointwise action, total degree <= 5
    b1, b2 = Fraction(2, 3), Fraction(7, 3)
    lx, ly = lo.quadratic(b1), lo.quadratic(b2)

    def tensor_poly(fcoeffs):
        # sum of c F_i(x) F_j(y) in the lattices' tensor F-basis
        out = MPoly.zero(2)
        for (i, j), c in fcoeffs.items():
            out = out + basis_poly(lx, i, 0, 2) * basis_poly(ly, j, 1, 2) * c
        return out

    coeffs = {}
    for _ in range(14):
        i, j = rng.randint(0, 5), rng.randint(0, 5)
        if i + j <= 5:
            coeffs[(i, j)] = Fraction(rng.randint(-7, 7), rng.randint(1, 4))
    coeffs[(2, 3)] = Fraction(1)
    p = tensor_poly(coeffs)
    comps = {}
    for (i, j), c in coeffs.items():
        comps.setdefault(i + j, {})[j] = c

    def act(kind):
        out = {}
        for deg, vec in comps.items():
            m = operator_matrices(deg, b1, b2)
            col = [vec.get(k, Fraction(0)) for k in range(deg + 1)]
            def add(target_deg, mat, from_col):
                tgt = out.setdefault(target_deg, [Fraction(0)] * (target_deg + 1))
                for r in range(mat.rows):
                    for c2 in range(mat.cols):
                        tgt[c2] += mat.data[r][c2] * from_col[r]
            if kind == "D" and deg:
                add(deg - 1, m.E1, col)
            elif kind == "S":
                add(deg, ExactMatrix.identity(deg + 1), col)
                if deg:
                    add(deg - 1, m.J1, col)
            elif kind == "x":
                add(deg + 1, m.L1, col)
                add(deg, m.M1, col)
        res = {}
        for deg, vec in out.items():
            for k, c in enumerate(vec):
                if c:
                    res[(deg - k, k)] = c
        return tensor_poly(res)

    svals = lo.grid_points(lx, 6)
    tvals = lo.grid_points(ly, 6, origin=2)
    for s in svals:
        for t in tvals:
            u, v = lo.lattice_value(lx, s), lo.lattice_value(ly, t)
            f = lambda sig: p.eval((lo.lattice_value(lx, sig), v))
            assert act("D").eval((u, v)) == lo.apply_D(lx, f, s)
            assert act("S").eval((u, v)) == lo.apply_S(lx, f, s)
            assert act("x").eval((u, v)) == u * p.eval((u, v))
