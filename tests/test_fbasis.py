import random
from fractions import Fraction
from itertools import product
from math import comb, prod

import pytest

from quadlattice import families as fam
from quadlattice import fbasis
from quadlattice import latticeops as lo
from quadlattice import ttrr
from quadlattice.exactfield import GaussianRational, from_parts, pochhammer
from quadlattice.fbasis import (
    MONOMIAL,
    MPoly,
    graded,
    h_closed_1,
    h_closed_2,
    interpolate_bivariate,
    interpolate_univariate,
    l_matrix,
    operator_matrices,
    structure_scalars,
    u_blocks,
)
from quadlattice.matrix import ExactMatrix

from basis_reference import basis_poly, chain_apply_rows, chain_combine

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


def test_mpoly_is_unhashable_and_never_equals_a_scalar():
    # an MPoly is mutable, so it has no hash, and a polynomial never equals
    # a scalar, not even its own constant term
    three = MPoly.const(2, Fraction(3))
    assert three == MPoly(2, {(0, 0): Fraction(3)})
    with pytest.raises(TypeError):
        hash(MPoly.const(2, Fraction(3)))
    assert three != MPoly.const(3, Fraction(3))
    for scalar in (3, Fraction(3), GaussianRational(3, 0)):
        assert three != scalar and scalar != three
    assert MPoly.zero(2) != 0 and 0 != MPoly.zero(2)


X, Y = MPoly.var(0, 2), MPoly.var(1, 2)
I = GaussianRational(0, 1)


def _typed_coeffs(p):
    """A polynomial's coefficients with their types."""
    return {e: (c, type(c)) for e, c in p.coeffs.items()}


def _binary_sum(coeffs, polys):
    """The left-to-right chain p_0 c_0 + p_1 c_1 + ... of binary operations."""
    out = None
    for c, p in zip(coeffs, polys):
        out = p * c if out is None else out + p * c
    return out


COMBINATIONS = {
    "real": (
        [Fraction(1, 2), Fraction(-3), 0, 2],
        [X * X + Y, X - Fraction(1, 3), Y, X * Y + 1],
    ),
    "gaussian": (
        [GaussianRational(1, 2), -I, GaussianRational(Fraction(1, 3), 0)],
        [X * I + Y, Y * GaussianRational(2, -1) + 1, X * X],
    ),
    "mixed": (
        [Fraction(2), I, Fraction(-1, 5), Fraction(0)],
        [X * Y + Fraction(1, 7), X * Y * I - 1, Y * GaussianRational(0, 3) + X, X],
    ),
    # x cancels after two terms, in Gaussian arithmetic, and the real third
    # term starts it again: it ends a Fraction, where a kept zero would
    # have made it Gaussian
    "cancels part-way": (
        [GaussianRational(1, 0), GaussianRational(-1, 0), Fraction(2)],
        [X + Y, X, X],
    ),
}


@pytest.mark.parametrize("case", sorted(COMBINATIONS))
def test_combine_is_the_left_to_right_binary_sum(case):
    coeffs, polys = COMBINATIONS[case]
    got = MPoly.combine(coeffs, polys)
    assert _typed_coeffs(got) == _typed_coeffs(_binary_sum(coeffs, polys))
    assert got.nvars == 2 and all(got.coeffs.values())


def test_an_all_zero_combination_is_the_zero_polynomial():
    p = X * I + Y * Fraction(1, 3)
    for coeffs, polys in (([1, -1], [p, p]), ([0, Fraction(0)], [X, Y]), ([I, I], [p, -p])):
        got = MPoly.combine(coeffs, polys)
        assert got == MPoly.zero(2) and got.coeffs == {}
    with pytest.raises(ValueError, match="variable count"):
        MPoly.combine([1, 1], [X, MPoly.var(0, 3)])


# -- the integer core of combine, against the field-arithmetic chain ----------------

SCALAR_KINDS = {
    "int": lambda rng: rng.randint(-2, 2),
    "fraction": lambda rng: Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
    # real ones among them: a Gaussian operand makes a real sum Gaussian
    "gaussian": lambda rng: GaussianRational(Fraction(rng.randint(-2, 2), rng.randint(1, 2)),
                                             rng.randint(-1, 1)),
}


def _draw_combination(rng, kinds, rows):
    """``rows`` coefficient rows and one list of sparse polys in two variables
    over the scalar ``kinds``, with zero coefficients of every type and an
    empty poly.  Some polys repeat the one before them, and some rows take
    the negated coefficient there, so that running sums cancel part-way."""

    def scalar():
        if rng.random() < 0.15:
            return rng.choice([0, Fraction(0), GaussianRational(0, 0)])
        return SCALAR_KINDS[rng.choice(kinds)](rng)

    count = rng.randint(2, 7)
    polys, echoes = [], []
    for k in range(count):
        if k and rng.random() < 0.35:
            polys.append(polys[-1])
            echoes.append(k)
        else:
            terms = rng.randint(1, 3)
            polys.append(MPoly(2, {(rng.randrange(3), rng.randrange(3)): scalar() for _ in range(terms)}))
    polys[rng.randrange(count)] = MPoly.zero(2)
    out = [[scalar() for _ in range(count)] for _ in range(rows)]
    for row in out:
        for k in echoes:
            if rng.random() < 0.6:
                row[k] = -row[k - 1]
    return out, polys


@pytest.mark.parametrize("kinds", [
    ("int",), ("fraction",), ("int", "fraction"), ("gaussian",), ("int", "fraction", "gaussian"),
])
def test_integer_combine_is_the_field_chain(kinds):
    # every coefficient of combine and apply_rows equals the field
    # arithmetic chain's (tests/basis_reference.py) in value and type
    rng = random.Random(41)
    for _ in range(150):
        rows, polys = _draw_combination(rng, kinds, 3)
        for row in rows:
            got = MPoly.combine(row, polys)
            assert _typed_coeffs(got) == _typed_coeffs(chain_combine(row, polys)), (row, polys)
            assert all(got.coeffs.values())
        matrix = ExactMatrix(rows)
        assert [_typed_coeffs(p) for p in matrix.apply_rows(polys)] == [
            _typed_coeffs(p) for p in chain_apply_rows(matrix, polys)
        ]


def test_a_gaussian_sum_that_cancels_part_way_goes_on_in_fractions():
    # x: (1 + i) and then -(1 + i) cancel to zero, which is dropped, and the
    # Fraction terms after them start it again, so x ends a Fraction; y and 1
    # keep their Gaussian operands; and a sum of int terms stays an int
    coeffs = [GaussianRational(1, 1), GaussianRational(-1, -1), Fraction(2, 3), 1]
    polys = [X + Y, X + MPoly.const(2, 3), X, MPoly(2, {(1, 0): Fraction(1, 4), (0, 0): 5})]
    want = {
        (1, 0): (Fraction(11, 12), Fraction), (0, 1): (GaussianRational(1, 1), GaussianRational),
        (0, 0): (GaussianRational(2, -3), GaussianRational),
    }
    for got in (MPoly.combine(coeffs, polys), ExactMatrix([coeffs]).apply_rows(polys)[0]):
        assert _typed_coeffs(got) == want == _typed_coeffs(chain_combine(coeffs, polys))
    ints = MPoly.combine([2, -1], [MPoly.const(2, 3), MPoly.const(2, 1)])
    assert _typed_coeffs(ints) == {(0, 0): (5, int)}


def test_combinations_refuse_mismatched_inputs():
    # combine's variable count check is test_an_all_zero_combination_is_the_zero_polynomial's
    for call in (
        lambda: MPoly.combine_rows([[1, 0], [0, 1]], [MPoly.zero(3), Y]),
        lambda: ExactMatrix([[1, 1]]).apply_rows([X, MPoly.var(0, 3)]),
        lambda: MPoly.combine([1], [X, Y]),
        lambda: MPoly.combine_rows([[1, 1], [1]], [X, Y]),
    ):
        with pytest.raises(ValueError):
            call()


def test_arithmetic_results_hold_no_zero_and_share_no_dict():
    p = X * X + X * Y * I - 3
    q = X * X * -1 + Y * Fraction(1, 2) + 3
    zero = MPoly.zero(2)
    operands = [p, q, zero]
    before = [dict(o.coeffs) for o in operands]
    results = [
        p + q, q + p, p - q, p - p, p + zero, zero + p, p - zero, zero - p, -p, -zero,
        p * 1, p * q, p * MPoly.const(2, 1), p * zero, 2 + p, 2 - p, p - 2,
        MPoly.combine([1], [p]), MPoly.combine([1, 0], [p, q]), MPoly.combine([1, 1], [p, zero]),
        p.mul_var(0), zero.mul_var(1),
    ]
    assert (p + q).coeffs == {(1, 1): I, (0, 1): Fraction(1, 2)} and (p - p).coeffs == {}
    for r in results:
        assert all(r.coeffs.values()) and all(type(e) is tuple for e in r.coeffs)
    for r in results:
        r.coeffs[(9, 9)] = Fraction(1)
        r.coeffs.pop((0, 0), None)
    assert [o.coeffs for o in operands] == before
    assert p.mul_var(1) == p * Y


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


def tensor_basis(lattices, n):
    """The tensor-basis entries F_{e_1}(x_1) ... F_{e_p}(x_p) of the
    lattices, one per variable, at the slots e of degree n."""
    nvars = len(lattices)
    return [
        prod((basis_poly(lattice, d, v, nvars) for v, (lattice, d) in enumerate(zip(lattices, e))), start=1)
        for e in graded(n, nvars)
    ]


def u_matrices(n, *lattices):
    """U_{n,n-1} and U_{n,n-2} of F_n = X_n + U_{n,n-1} X_{n-1} + U_{n,n-2} X_{n-2} + ...:
    row k holds the coefficients of the tensor-basis entry at slot k of degree
    n at the slots of degree n - 1 and n - 2."""
    entries = tensor_basis(lattices, n)
    return tuple(
        ExactMatrix([[p.coeff(e) for e in graded(d, len(lattices))] for p in entries])
        for d in (n - 1, n - 2)
    )


# the Racah beta1, beta2 of the recurrence tests' second parameter set
ALT_B1, ALT_B2 = Fraction(5, 4), Fraction(10, 3)


def test_u_matrix_band_structure():
    # the printed bands of the tensor-basis coefficients: U_{n,n-1} has
    # H^(1) on the diagonal and the subdiagonal, U_{n,n-2} H^(2), H^(1) H^(1)
    # and H^(2) on three diagonals; the package's U blocks and the expanded
    # tensor basis both
    for b1, b2 in ((B1, B2), (ALT_B1, ALT_B2)):
        lattices = (lo.quadratic(b1), lo.quadratic(b2))
        for n in range(1, 7):
            for u1, u2 in (u_matrices(n, *lattices), u_blocks(lattices, n)):
                for k in range(n + 1):
                    for c in range(n):
                        expect = Fraction(0)
                        if c == k:
                            expect = h_closed_1(n - k, b1)
                        elif c == k - 1:
                            expect = h_closed_1(k, b2)
                        assert u1.data[k][c] == expect, (b1, n, k, c)
                    for c in range(n - 1):
                        expect = Fraction(0)
                        if c == k:
                            expect = h_closed_2(n - k, b1)
                        elif c == k - 1:
                            expect = h_closed_1(n - k, b1) * h_closed_1(k, b2)
                        elif c == k - 2:
                            expect = h_closed_2(k, b2)
                        assert u2.data[k][c] == expect, (b1, n, k, c)
        # top-left of U_{2,1} is H^(1)_{2,1}
        assert u_blocks(lattices, 2)[0].data[0][0] == h_closed_1(2, b1)


@pytest.mark.parametrize("lattices", [
    (lo.wilson_square(), MONOMIAL),
    (lo.quadratic(B1), MONOMIAL, lo.wilson_square()),
], ids=["wilson-linear", "three-variables"])
def test_u_blocks_are_the_expanded_tensor_basis(lattices):
    # lattices of different kinds on the axes, and three variables, whose
    # h1 h1 entries pair every two axes
    for n in range(1, 7):
        assert u_blocks(lattices, n) == u_matrices(n, *lattices), n


# -- the slot rule -------------------------------------------------------------------

def test_graded_slots_count_and_two_variable_rule():
    for nvars in (1, 2, 3, 4):
        for n in range(7):
            slots = graded(n, nvars)
            assert len(slots) == comb(n + nvars - 1, nvars - 1)
            assert len(set(slots)) == len(slots)
            assert all(len(e) == nvars and min(e) >= 0 and sum(e) == n for e in slots)
        assert graded(-1, nvars) == []
    for n in range(7):
        assert graded(n, 2) == [(n - k, k) for k in range(n + 1)]


@pytest.mark.parametrize("nvars", [2, 3])
def test_reversed_slots_are_the_label_order(nvars):
    for n in range(7):
        labels = sorted(l for l in product(range(n + 1), repeat=nvars) if sum(l) == n)
        assert list(reversed(graded(n, nvars))) == labels


def _monomials(n, nvars):
    """The graded monomial vector X_n: x^e at each slot e of degree n."""
    return [MPoly(nvars, {e: Fraction(1)}) for e in graded(n, nvars)]


def test_l_matrix_is_x_j_on_the_slots_in_three_variables():
    # L_{n,j} X_{n+1} = x_j X_n
    for n in range(5):
        for j in (1, 2, 3):
            shifted = l_matrix(n, j, 3).apply_rows(_monomials(n + 1, 3))
            assert shifted == [MPoly.var(j - 1, 3) * m for m in _monomials(n, 3)], (n, j)


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
    # the sample at (svals[1], tvals[2]), row-major over the grid
    bad = 1 * len(tvals) + 2
    original = ttrr.family_grid

    def perturbed(spec, labels, axes):
        grids = original(spec, labels, axes)
        k = list(labels).index((1, 1))
        den, parts = grids[k]
        # (A + Bi) / den + 1/1000 at the one point, over 1000 den
        parts = [(1000 * a + (den if j == bad else 0), 1000 * b) for j, (a, b) in enumerate(parts)]
        grids[k] = (1000 * den, parts)
        return grids

    monkeypatch.setattr(ttrr, "family_grid", perturbed)
    with pytest.raises(AssertionError, match="interpolated family entry exceeds total degree"):
        ttrr.family_poly_vector(spec, n)


# the families whose members the oracle grid samples
GRID_FAMILIES = ttrr.TTRR_FAMILIES + (fam.CH_TRI,)


# coordinates over different denominators, so that the vectors of one axis
# do not share one
MIXED_AXIS = [Fraction(8, 7), Fraction(5, 3), Fraction(13, 4), Fraction(6), Fraction(23, 10)]


@pytest.mark.parametrize("seed", [None, 3])
@pytest.mark.parametrize("family", GRID_FAMILIES)
def test_family_grid_is_the_pointwise_member_at_every_grid_point(family, seed):
    params = None if seed is None else _benchmark_params(seed, family)
    spec = fam.FamilySpec(family, params)
    grids = [(n, lo.grid_axes(spec.lattices(), n + 2)) for n in range(5)]
    grids += [(n, [MIXED_AXIS[k:] + MIXED_AXIS[:k] for k in range(spec.nvars)]) for n in (1, 3)]
    for n, axes in grids:
        labels = graded(n, spec.nvars)
        # a spec of its own, so that the grid builds every factor vector itself
        grids = fam.family_grid(fam.FamilySpec(family, params), labels, axes)
        assert len(grids) == len(labels)
        for label, (den, parts) in zip(labels, grids):
            # the series oracle, summed point by point, shares no code with the grid
            want = [fam.eval_family_oracle(spec, label, point) for point in product(*axes)]
            got = [from_parts(den, a, b) for a, b in parts]
            assert got == want, (family, n, label)
            assert [type(v) for v in got] == [type(v) for v in want], (family, n, label)


@pytest.mark.parametrize("family", [fam.RACAH, fam.WILSON, fam.CDH])
def test_family_grid_raises_the_pointwise_non_real_error(family):
    label, n = (1, 1), 2
    axes = lo.grid_axes(fam.FamilySpec(family).lattices(), n + 2)
    messages = []
    try:
        for grid in (False, True):
            spec = fam.FamilySpec(family)
            fam._eval_cached.cache_clear()
            # the degree-1 factor in x turned by i: its real values come out imaginary
            fam._member(spec, label)[0].turns = 1
            with pytest.raises(ArithmeticError, match="came out non-real") as exc:
                if grid:
                    fam.family_grid(spec, [label], axes)
                else:
                    for point in product(*axes):
                        fam.family_function(spec, label)(point)
            messages.append(str(exc.value))
    finally:
        # equal specs share the cache: drop what the turned factor left there
        fam._eval_cached.cache_clear()
    assert messages[0] == messages[1]


DEGENERATE_DRAWS = [
    # beta + delta + 1 = beta2 + t vanishes at the grid's t = 22/7
    (fam.RACAH, {"beta2": Fraction(-22, 7)}),
    # gamma + 1 = s - N vanishes at the grid's s = 15/7
    (fam.RACAH_BAR, {"N": Fraction(15, 7)}),
    # a + b = -1 in the x factor, whatever the point
    (fam.WILSON, {"b": Fraction(-3, 2)}),
    # (n + a + e2) + b = n - 1 in the y factor, whatever the point
    (fam.CDH, {"b": Fraction(-19, 10)}),
]


@pytest.mark.parametrize("family, params", DEGENERATE_DRAWS, ids=[d[0] for d in DEGENERATE_DRAWS])
def test_family_grid_raises_where_the_pointwise_member_does(family, params):
    spec = fam.FamilySpec(family, params)
    raised = []
    for n in range(4):
        axes = lo.grid_axes(spec.lattices(), n + 2)
        for label in graded(n, spec.nvars):
            member = fam.family_function(spec, label)
            try:
                for point in product(*axes):
                    member(point)
            except fam.DegenerateParameterError:
                raised.append(label)
                with pytest.raises(fam.DegenerateParameterError):
                    fam.family_grid(fam.FamilySpec(family, params), [label], axes)
            else:
                fam.family_grid(fam.FamilySpec(family, params), [label], axes)
    # the draw is degenerate for some labels and not for others
    assert raised and (0, 0) not in raised


def test_mpoly_json():
    p = MPoly(2, {(1, 0): Fraction(1, 2), (0, 0): Fraction(3)})
    assert p.to_json() == [
        {"dx": 0, "dy": 0, "coeff": "3"},
        {"dx": 1, "dy": 0, "coeff": "1/2"},
    ]
    m = operator_matrices(1, B1, B2)
    blob = m.to_json()
    assert blob["E1"]["data"] == [["1"], ["0"]]
