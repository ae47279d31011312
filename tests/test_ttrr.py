import random
import re
from fractions import Fraction
from functools import reduce
from math import comb, factorial

import pytest

from quadlattice import families as fam
from quadlattice import pdeverify, ttrr
from quadlattice.exactfield import GaussianRational, pochhammer
from quadlattice.fbasis import (
    MONOMIAL,
    MPoly,
    basis_poly,
    basis_polys,
    graded,
    h_closed_1,
    interpolate_on_grid,
    l_matrix,
    poly_shift_pair,
    u_blocks,
)
from quadlattice.latticeops import LatticeSpec
from quadlattice.matrix import ExactMatrix, _reduce, check_invertible, exact_inverse, solve_stacked
from quadlattice.pdeverify import coefficients

PTS2 = [(Fraction(8, 7), Fraction(16, 7)), (Fraction(15, 7), Fraction(23, 7))]


# -- exact matrices ---------------------------------------------------------------

def test_exact_inverse_examples():
    assert exact_inverse(ExactMatrix.identity(3)) == ExactMatrix.identity(3)
    d = ExactMatrix.diagonal([Fraction(2), Fraction(3)])
    assert exact_inverse(d) == ExactMatrix.diagonal([Fraction(1, 2), Fraction(1, 3)])
    rng = random.Random(61)
    m = ExactMatrix(
        [[Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(4)] for _ in range(4)]
    )
    assert m * exact_inverse(m) == ExactMatrix.identity(4)


def test_exact_inverse_singular_names_pivot():
    singular = ExactMatrix([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]])
    with pytest.raises(ValueError, match="column 1"):
        exact_inverse(singular)


def test_solve_stacked_detects_inconsistency():
    a = ExactMatrix([[Fraction(1)], [Fraction(1)]])
    assert solve_stacked(a, [Fraction(3), Fraction(3)]) == [Fraction(3)]
    with pytest.raises(ValueError):
        solve_stacked(a, [Fraction(3), Fraction(4)])


def test_gaussian_matrix_inverse():
    i = GaussianRational(0, 1)
    m = ExactMatrix([[i, 1], [0, i]])
    inv = exact_inverse(m)
    assert m * inv == ExactMatrix.identity(2)


def test_product_entries_are_gaussian_exactly_where_a_gaussian_operand_contributes():
    i, zero = GaussianRational(0, 1), Fraction(0)
    a = ExactMatrix([
        [i, Fraction(1), zero],
        [zero, Fraction(2), zero],
        [zero, zero, zero],
        [GaussianRational(1, 1), zero, zero],
    ])
    b = ExactMatrix([
        [i, Fraction(2), GaussianRational(1, -1)],
        [Fraction(1), Fraction(3), zero],
        [i, Fraction(5), zero],
    ])
    # i*i + 1*1 cancels and (1+i)(1-i) is real, both still Gaussian; b's
    # Gaussian entries meet only zeros of a's second and third rows, and an
    # entry no pair reaches is Fraction(0)
    want = [
        [GaussianRational(0, 0), GaussianRational(3, 2), GaussianRational(1, 1)],
        [Fraction(2), Fraction(6), zero],
        [zero, zero, zero],
        [GaussianRational(-1, 1), GaussianRational(2, 2), GaussianRational(2, 0)],
    ]
    assert _typed(a * b) == [[(x, type(x)) for x in row] for row in want]


def test_zero_dimensions_keep_their_shape():
    zero = ExactMatrix.zero
    shape = lambda m: (m.rows, m.cols)
    assert shape(zero(0, 3)) == (0, 3) and zero(0, 3) != zero(0, 5)
    assert shape(zero(0, 3) + zero(0, 3)) == shape(zero(0, 3).scale(2)) == (0, 3)
    assert zero(2, 0) * zero(0, 3) == zero(2, 3)
    assert zero(2, 0) * l_matrix(-1, 1, 2) == zero(2, 1)
    assert shape(l_matrix(-1, 1, 2)) == (0, 1)
    assert shape(zero(3, 0).transpose()) == (0, 3)
    assert shape(zero(0, 2).hstack(zero(0, 3))) == (0, 5)
    assert shape(zero(0, 2).vstack(zero(0, 2))) == (0, 2)
    assert shape(exact_inverse(ExactMatrix.identity(0))) == (0, 0)


# seed-pinned random matrices over Q and Q(i), built so that their rank is
# known without the elimination under test

def _draw(rng, field):
    def scalar():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 7))

    if field == "Q":
        return scalar
    return lambda: GaussianRational(scalar(), scalar())


def _invertible(draw, n):
    """L D U with unit triangular L, U and a nonzero diagonal D."""
    lower = ExactMatrix([[draw() if i > j else Fraction(int(i == j)) for j in range(n)]
                         for i in range(n)])
    upper = ExactMatrix([[draw() if i < j else Fraction(int(i == j)) for j in range(n)]
                         for i in range(n)])
    return lower * ExactMatrix.diagonal([draw() or Fraction(1) for _ in range(n)]) * upper


def _full_rank(draw, rows, cols):
    """A rows x cols matrix of rank min(rows, cols): leading columns of an
    invertible matrix, or leading rows of one."""
    if rows >= cols:
        return ExactMatrix([row[:cols] for row in _invertible(draw, rows).data])
    return ExactMatrix(_invertible(draw, cols).data[:rows])


@pytest.mark.parametrize("field", ["Q", "Q(i)"])
def test_random_inverse_is_exact(field):
    draw = _draw(random.Random(17), field)
    for n in (1, 3, 5):
        m = _invertible(draw, n)
        assert exact_inverse(m) * m == ExactMatrix.identity(n)


@pytest.mark.parametrize("field", ["Q", "Q(i)"])
@pytest.mark.parametrize("n, r, m", [(4, 2, 6), (6, 3, 4)])
def test_random_product_rank(field, n, r, m):
    draw = _draw(random.Random(23), field)
    b, c = _full_rank(draw, n, r), _full_rank(draw, r, m)
    assert b.rank() == r and c.rank() == r
    assert (b * c).rank() == r
    assert (b * c).transpose().rank() == r


@pytest.mark.parametrize("field", ["Q", "Q(i)"])
def test_random_stacked_solve_with_polynomial_rhs(field):
    draw = _draw(random.Random(29), field)
    a = _full_rank(draw, 6, 4)
    x = [MPoly(2, {(i, j): draw() for i in range(2) for j in range(2)}) for _ in range(4)]
    rhs = a.apply_rows(x)
    assert solve_stacked(a, rhs) == x
    rhs[-1] = rhs[-1] + MPoly.var(0, 2)
    with pytest.raises(ValueError, match="inconsistent stacked system"):
        solve_stacked(a, rhs)


def reference_apply_rows(m, vector):
    """The matrix action as a running binary sum per row."""
    out = []
    for row in m.data:
        acc = None
        for c, v in zip(row, vector):
            if c:
                acc = c * v if acc is None else acc + c * v
        out.append(0 * vector[0] if acc is None else acc)
    return out


def _typed_polys(polys):
    return [{e: (c, type(c)) for e, c in p.coeffs.items()} for p in polys]


@pytest.mark.parametrize("field", ["Q", "Q(i)"])
def test_apply_rows_on_polynomials_is_the_binary_row_sum(field):
    draw = _draw(random.Random(31), field)
    m = ExactMatrix(
        [[draw() if (i + j) % 3 else Fraction(0) for j in range(4)] for i in range(3)]
        + [[Fraction(0)] * 4]
    )
    x = [MPoly(2, {(i, j): draw() for i in range(2) for j in range(2)}) for _ in range(4)]
    x[1] = -x[0]
    got = m.apply_rows(x)
    assert _typed_polys(got) == _typed_polys(reference_apply_rows(m, x))
    assert got[-1] == MPoly.zero(2)


def test_rank_deficient_system_names_first_column_without_pivot():
    draw = _draw(random.Random(31), "Q")
    a = _full_rank(draw, 5, 3)
    cols = [[row[j] for row in a.data] for j in range(3)]
    # column 2 is the sum of columns 0 and 1
    deficient = ExactMatrix(
        list(zip(cols[0], cols[1], [p + q for p, q in zip(cols[0], cols[1])], cols[2]))
    )
    assert deficient.rank() == 3
    with pytest.raises(ValueError, match="no pivot for column 2"):
        solve_stacked(deficient, [Fraction(0)] * 5)


def _rank_case(rng, rows, cols):
    """A rows x cols matrix over Q (or Q(i), mixed with real entries), with
    zero entries, some zero columns and, often, rows planted as combinations
    of others."""
    gaussian = rng.random() < 0.5
    zero_cols = {c for c in range(cols) if rng.random() < 0.2}

    def entry(c):
        if c in zero_cols or rng.random() < 0.3:
            return Fraction(0)
        q = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
        if gaussian and rng.random() < 0.5:
            return GaussianRational(q, Fraction(rng.randint(-9, 9), rng.randint(1, 7)))
        return q

    data = [[entry(c) for c in range(cols)] for _ in range(rows)]
    for _ in range(rng.randint(0, rows // 2)):
        i, j, k = (rng.randrange(rows) for _ in range(3))
        a, b = (Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(2))
        if gaussian:
            a = GaussianRational(a, Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
        data[i] = [a * x + b * y for x, y in zip(data[j], data[k])]
    return ExactMatrix(data, cols)


def test_rank_is_the_pivot_count_of_gauss_jordan():
    # the fraction-free rank against the field elimination behind the solves
    rng = random.Random(35)
    shapes = [(r, c) for r in range(8) for c in range(8)]
    seen = set()
    for t in range(2200):
        rows, cols = shapes[t % len(shapes)]
        m = _rank_case(rng, rows, cols)
        want = len(_reduce([row[:] for row in m.data], m.cols))
        assert m.rank() == want, m
        seen.add((rows, cols, want))
    # every shape met, from 0 x n and n x 0 up, full and deficient ranks among them
    assert {(r, c) for r, c, _ in seen} == set(shapes)
    assert any(k < min(r, c) for r, c, k in seen) and any(k == min(r, c) > 0 for r, c, k in seen)


# -- S_n / T_n ---------------------------------------------------------------------

ALT_PARAMS = {
    fam.RACAH: {"beta0": Fraction(2, 7), "beta1": Fraction(5, 4), "beta2": Fraction(10, 3),
                "beta3": Fraction(21, 4), "N": Fraction(23, 3)},
    fam.WILSON: {"a": Fraction(3, 7), "b": Fraction(5, 8), "c": Fraction(9, 7),
                 "d": Fraction(13, 11), "e2": Fraction(3, 8)},
    fam.CDH: {"a": Fraction(3, 7), "b": Fraction(5, 8), "c": Fraction(9, 7), "e2": Fraction(3, 8)},
    fam.CH: {"a1": Fraction(2, 5), "e2": Fraction(3, 11), "a3": Fraction(5, 7),
             "b1": Fraction(7, 9), "b3": Fraction(5, 13)},
}


def test_printed_st_match_derivation_route():
    # the cross-validation that arbitrates the long printed closed forms,
    # run at two unrelated generic parameter sets, to n = 8 for the Racah
    # families, whose derived blocks go through the change of basis
    for name in ttrr.TTRR_FAMILIES:
        top = 8 if fam.base_family(name) == fam.RACAH else 4
        for params in (None, ALT_PARAMS[fam.base_family(name)]):
            spec = fam.FamilySpec(name, params=params)
            for n in range(1, top + 1):
                sd, td = ttrr.sn_tn_derived(spec, n)
                sp, tp = ttrr.sn_tn(name, spec.params, n)
                assert sd == sp, (name, n)
                if n >= 2:
                    assert td == tp, (name, n)


def test_st_shapes_and_band_patterns():
    spec = fam.FamilySpec(fam.RACAH)
    s3, t3 = ttrr.sn_tn(fam.RACAH, spec.params, 3)
    assert (s3.rows, s3.cols) == (4, 3)
    assert (t3.rows, t3.cols) == (4, 2)
    for i in range(4):
        for j in range(3):
            if j not in (i, i - 1):
                assert s3.data[i][j] == 0
    for i in range(4):
        for j in range(2):
            if j not in (i, i - 1, i - 2):
                assert t3.data[i][j] == 0


def test_ch_s21_entry_is_half_i_times_bracket():
    spec = fam.FamilySpec(fam.CH)
    p = spec.params
    s1, _ = ttrr.sn_tn(fam.CH, spec.params, 1)
    k, n = 1, 1
    bracket = (
        p["a3"] * (-2 * p["b1"] - 2 * p["e2"] + k - 2 * n + 1)
        + p["a1"] * (2 * p["b3"] + k - 1)
        + 2 * p["b3"] * p["e2"]
        - p["b1"] * k
        - p["b3"] * k
        + 2 * p["b3"] * n
        + p["b1"]
        - p["b3"]
    )
    assert s1.data[1][0] == GaussianRational(0, Fraction(1, 2)) * k * bracket


def test_racah_s11_at_n1_matches_printed_formula():
    spec = fam.FamilySpec(fam.RACAH)
    s1, _ = ttrr.sn_tn(fam.RACAH, spec.params, 1)
    derived = ttrr.sn_tn_derived(spec, 1)[0]
    assert s1.data[0][0] == derived.data[0][0]


# -- G' and G chains ------------------------------------------------------------------

def test_g_primes_n1_and_z_scalar():
    # the monic chain's G_{1,0} is U_{1,0} plus G'_{1,0} = S_1 / (lambda_0 - lambda_1),
    # S_1 on the F-basis the paper prints it in
    spec = fam.FamilySpec(fam.RACAH)
    table = coefficients(spec)
    lam = lambda k: table.eigenvalue((k, 0))
    s1 = ttrr.sn_tn_derived(spec, 1)[0]
    u10 = reference_u_matrices(1, *ttrr.working_bases(spec))[0]
    assert ttrr.GChain(spec, 1).g(1, 0) - u10 == s1.scale(1 / (lam(0) - lam(1)))
    # Z_2(lambda_0) for the default Racah parameters is (53/5) I_3
    assert lam(2) - lam(0) == Fraction(53, 5)


def test_eigenvalue_collision_rejected():
    # beta3 - beta0 = -2 collides lambda_2 with lambda_1
    bad = fam.FamilySpec(
        fam.RACAH,
        params={"beta0": Fraction(1, 5), "beta3": Fraction(1, 5) - 2},
    )
    with pytest.raises(fam.DegenerateParameterError, match="eigenvalue collision"):
        ttrr.GChain(bad, 2)


def test_g_corrections_use_u_matrices():
    spec = fam.FamilySpec(fam.RACAH)
    table = coefficients(spec)
    lam = lambda k: table.eigenvalue((k, 0))
    chain = ttrr.GChain(spec, 2)
    gp1 = ttrr.sn_tn_derived(spec, 2)[0].scale(1 / (lam(1) - lam(2)))  # G'_{2,1}
    # top-left of U_{2,1} is H^(1)_{2,1}
    b1 = spec.params["beta1"]
    assert chain.g(2, 1).data[0][0] - gp1.data[0][0] == h_closed_1(2, b1)
    # n = 1 has no G_{n,n-2}
    with pytest.raises(ValueError, match="not tracked"):
        chain.g(1, -1)


def test_wilson_chain_has_no_u_corrections():
    # monomial working basis: U matrices vanish, so G == G'
    spec = fam.FamilySpec(fam.WILSON)
    table = coefficients(spec)
    lam = lambda k: table.eigenvalue((k, 0))
    s1 = ttrr.sn_tn_derived(spec, 1)[0]
    s2, t2 = ttrr.sn_tn_derived(spec, 2)
    gp1 = s2.scale(1 / (lam(1) - lam(2)))
    gp2 = (t2 + gp1 * s1).scale(1 / (lam(0) - lam(2)))
    chain = ttrr.GChain(spec, 2)
    assert chain.g(2, 1) == gp1 and chain.g(2, 0) == gp2


def test_every_chain_derives_s_k_t_k_on_the_monomials(monkeypatch):
    # the G blocks are read straight from S_k / T_k on the monomials, the
    # F-basis families included, so no chain changes basis: one derivation
    # per degree and none on the paper's basis; the family leading's blocks
    # are the chain's conjugates and derive nothing of their own
    derivations = _counted(monkeypatch, ttrr, "_phi_blocks")
    conversions = _counted(monkeypatch, ttrr, "_on_working_bases")
    for name in ttrr.TTRR_FAMILIES:
        derivations.clear()
        spec = fam.FamilySpec(name)
        chain = ttrr.GChain(spec, 3)
        ttrr.recurrence_blocks(chain, 2, ttrr.leading_matrices(spec, 3, "family"))
        assert [n for _, n in derivations] == [1, 2, 3], name
        assert all(table is chain.table for table, _ in derivations), name
    assert not conversions


def test_g_outside_the_chain_raises():
    chain = ttrr.GChain(fam.FamilySpec(fam.CDH), 2)
    for k, j in ((0, -1), (1, -1), (2, -1), (2, 3), (3, 3)):
        with pytest.raises(ValueError, match=re.escape(f"G_{{{k},{j}}} is not tracked")):
            chain.g(k, j)


def test_blocks_past_the_top_of_the_chain_raise_the_untracked_error():
    # the row picks L_{n,j} G_{n+1,m} read through g, so no untracked block
    # escapes as a KeyError
    chain = ttrr.GChain(fam.FamilySpec(fam.RACAH), 2)
    with pytest.raises(ValueError, match=re.escape("G_{3,2} is not tracked")):
        ttrr.abc_matrices(chain, 2, 1)
    with pytest.raises(ValueError, match=re.escape("G_{4,4} is not tracked")):
        ttrr.recurrence_blocks(chain, 4)
    for j in (0, 3):
        with pytest.raises(ValueError, match=re.escape("j must be 1..2")):
            ttrr.abc_matrices(chain, 1, j)


# the chain and the recurrence as they were first written, G' blocks from
# S_n / T_n on the F-basis and U corrections in separate steps and A/B/C with
# their n = 0, 1 cases copied out: the reference for the one-loop chain

def reference_g_primes(gnn, table, st, n):
    """G'_{n,n-1} and G'_{n,n-2} from the equation, given G'_{n,n} = gnn and
    st = (S_n, T_n, S_{n-1}), where S_{n-1} is None for n < 2."""
    lam = lambda k: table.eigenvalue((k,) + (0,) * (table.nvars - 1))
    sn, tn, sn_prev = st
    for ell in (n - 1, n - 2):
        if ell >= 0 and lam(ell) == lam(n):
            raise fam.DegenerateParameterError(f"eigenvalue collision lambda_{n} = lambda_{ell}")
    g1 = (gnn * sn).scale(1 / (lam(n - 1) - lam(n)))
    if n < 2:
        return g1, None
    g2 = (gnn * tn + g1 * sn_prev).scale(1 / (lam(n - 2) - lam(n)))
    return g1, g2


def reference_g_corrections(gnn, gp1, gp2, spec, n):
    """Monomial-expansion G_{n,n-1} and G_{n,n-2} from the F-expansion ones."""
    bases = ttrr.working_bases(spec)
    u1, u2 = reference_u_matrices(n, *bases)
    gn1 = gnn * u1 + gp1 if n >= 1 else None
    gn2 = None
    if n >= 2:
        u1_prev = reference_u_matrices(n - 1, *bases)[0]
        gn2 = gnn * u2 + gp1 * u1_prev + gp2
    return gn1, gn2


def reference_chain(spec, top, leading):
    """{(k, j): G_{k,j}} built degree by degree from the two steps above."""
    table = coefficients(spec)
    blocks = {}
    for k in range(top + 1):
        if leading == "monic":
            g = ExactMatrix.identity(k + 1)
        else:
            g = ttrr.leading_matrix(spec.family, spec.params, k)
        blocks[k, k] = g
        if k >= 1:
            sn_prev = ttrr.sn_tn_derived(spec, k - 1, table)[0] if k >= 2 else None
            st = ttrr.sn_tn_derived(spec, k, table) + (sn_prev,)
            gp1, gp2 = reference_g_primes(g, table, st, k)
            blocks[k, k - 1], gn2 = reference_g_corrections(g, gp1, gp2, spec, k)
            if gn2 is not None:
                blocks[k, k - 2] = gn2
    return blocks


def reference_abc(blocks, n, j):
    """A_{n,j}, B_{n,j}, C_{n,j} with the n = 0 and n = 1 cases written out."""
    g = lambda k, m: blocks[k, m]
    inv = lambda k: exact_inverse(blocks[k, k])
    a = g(n, n) * reference_l_matrix(n, j) * inv(n + 1)
    if n == 0:
        b = (a * g(1, 0)).scale(-1) * inv(0)
        return a, b, None
    b = (g(n, n - 1) * reference_l_matrix(n - 1, j) - a * g(n + 1, n)) * inv(n)
    if n == 1:
        c = ((a * g(2, 0)).scale(-1) - b * g(1, 0)) * inv(0)
    else:
        c = (
            g(n, n - 2) * reference_l_matrix(n - 2, j)
            - a * g(n + 1, n - 1)
            - b * g(n, n - 1)
        ) * inv(n - 1)
    return a, b, c


# the slot rule as it was first spelled out for two variables, slot k of
# degree n being (n - k, k): the reference for fbasis.graded and its readers

def reference_l_matrix(n, j):
    """Selection matrices: L_{n,1} = [I | 0], L_{n,2} = [0 | I]."""
    out = ExactMatrix.zero(n + 1, n + 2)
    for k in range(n + 1):
        out[k, k + (j - 1)] = Fraction(1)
    return out


def reference_u_matrices(n, lattice_x, lattice_y):
    xpolys = basis_polys(lattice_x, n)
    ypolys = basis_polys(lattice_y, n)
    u1 = ExactMatrix.zero(n + 1, max(n, 0))
    u2 = ExactMatrix.zero(n + 1, max(n - 1, 0))
    for k in range(n + 1):
        px = xpolys[n - k]
        py = ypolys[k]
        for c in range(n):
            # coefficient of x^(n-1-c) y^c
            u1[k, c] = px.coeff((n - 1 - c,)) * py.coeff((c,))
        for c in range(max(n - 1, 0)):
            u2[k, c] = px.coeff((n - 2 - c,)) * py.coeff((c,))
    return u1, u2


@pytest.mark.parametrize("name, params", [
    (fam.RACAH, None), (fam.RACAH, ALT_PARAMS[fam.RACAH]), (fam.WILSON, None), (fam.CH, None),
])
def test_u_blocks_match_the_reference(name, params):
    # quadratic lattices at two parameter sets, the Wilson square lattice and
    # the linear lattice, whose U blocks vanish
    lattices = fam.FamilySpec(name, params=params).lattices()
    for n in range(1, 7):
        u1, u2 = u_blocks(lattices, n)
        assert (u1, u2) == reference_u_matrices(n, *lattices), n
        if lattices[0].kind == LatticeSpec.LINEAR:
            assert not any(x for m in (u1, u2) for row in m.data for x in row), n


def reference_tensor_entry(bases, degree, k):
    px = basis_poly(bases[0], degree - k, index=0, nvars=2)
    py = basis_poly(bases[1], k, index=1, nvars=2)
    return px * py


def reference_table_action(table, p):
    """sum f_i E_i p by the Horner route: every E_l p built one variable at
    a time with poly_shift_pair, then summed in MPoly arithmetic."""
    images = {(): p}
    for var, lattice in enumerate(table.lattices):
        layer = {}
        for prefix, q in images.items():
            dq = poly_shift_pair(q, var, lattice)[1]
            sdq, ddq = poly_shift_pair(dq, var, lattice)
            layer[prefix + (0,)], layer[prefix + (1,)], layer[prefix + (2,)] = q, sdq, ddq
        images = layer
    out = MPoly.zero(table.nvars)
    for fi, lind in zip(table.coeffs, table.lindices):
        out = out + fi * images[lind]
    return out


def monomial_to_nodes(coeffs, lattice):
    """Univariate monomial coefficients (index = degree) to coefficients on
    the lattice's basis, by repeated synthetic division."""
    work = list(coeffs)
    out = []
    for k in range(len(coeffs)):
        node = lattice.node(k)
        # synthetic division of work by (u - node): remainder, then quotient
        rem = work[-1]
        quot = [work[-1]]
        for c in reversed(work[:-1]):
            rem = c + node * rem
            quot.append(rem)
        quot.reverse()
        out.append(quot[0])
        work = quot[1:]
    return out


def to_basis(p, lattices):
    """Coefficients {exponents: c}, in a new dict, of p on the tensor basis
    F_i(x) F_j(y) ... of the lattices, one per variable.  An axis on a linear
    lattice is already monomial and is left as it is."""
    coeffs = dict(p.coeffs)
    for var, lattice in enumerate(lattices):
        if lattice.kind == LatticeSpec.LINEAR:
            continue
        columns = {}
        for exps, c in coeffs.items():
            rest = exps[:var] + (0,) + exps[var + 1:]
            columns.setdefault(rest, {})[exps[var]] = c
        coeffs = {}
        for rest, column in columns.items():
            lst = [column.get(d, Fraction(0)) for d in range(max(column) + 1)]
            for d, c in enumerate(monomial_to_nodes(lst, lattice)):
                if c:
                    coeffs[rest[:var] + (d,) + rest[var + 1:]] = c
    return coeffs


def reference_phi_blocks(table, degree, bases):
    """The diagonal, first and second subdiagonal blocks of the table's
    action on the tensor basis of ``bases``, each entry imaged by the Horner
    route and read off that basis by synthetic division (:func:`to_basis`)."""
    diag = ExactMatrix.zero(degree + 1, degree + 1)
    sub1 = ExactMatrix.zero(degree + 1, max(degree, 0))
    sub2 = ExactMatrix.zero(degree + 1, max(degree - 1, 0))
    for k in range(degree + 1):
        image = reference_table_action(table, reference_tensor_entry(bases, degree, k))
        for (i, j), c in to_basis(image, bases).items():
            d = i + j
            if d == degree:
                diag[k, j] = c
            elif d == degree - 1:
                sub1[k, j] = c
            elif d == degree - 2:
                sub2[k, j] = c
            elif d > degree:
                raise AssertionError("operator action raised the total degree")
    return diag, sub1, sub2


def reference_leading_matrix_oracle(spec, n):
    members = [fam.family_function(spec, (n - k, k)) for k in range(n + 1)]
    entries = interpolate_on_grid(
        spec.lattices(), n + 2, lambda point: [member(point) for member in members]
    )
    out = ExactMatrix.zero(n + 1, n + 1)
    for k, poly in enumerate(entries):
        for c in range(n + 1):
            out[k, c] = poly.coeff((n - c, c))
    return out


def _perfbench_draw(seed):
    """{owner family: params} as perfbench draws them: each default plus
    k/p, one prime p >= 13 per parameter position, owners in sorted order."""
    rng = random.Random(seed)
    draws = {}
    for owner in sorted({fam.base_family(f) for f in fam.ALL_FAMILIES}):
        defaults = fam.DEFAULT_PARAMS[owner]
        draws[owner] = {
            name: defaults[name] + Fraction(rng.randint(1, p - 1), p)
            for name, p in zip(fam.PARAM_NAMES[owner], (13, 17, 19, 23, 29, 31))
        }
    return draws


def _typed(m):
    """A matrix's entries with their types, None left as it is."""
    return m if m is None else [[(x, type(x)) for x in row] for row in m.data]


@pytest.mark.parametrize("draw", ["default", 1, 5])
@pytest.mark.parametrize("name", ttrr.TTRR_FAMILIES)
def test_one_loop_chain_matches_the_reference(name, draw):
    # every tracked G block and every A/B/C, in value and in entry type, of
    # the monic chain, and of its conjugates by the leading matrices against
    # the family-leading reference chain
    params = None if draw == "default" else _perfbench_draw(draw)[fam.base_family(name)]
    spec = fam.FamilySpec(name, params=params)
    top = 5
    chain = ttrr.GChain(spec, top)
    monic = reference_chain(spec, top, "monic")
    for k in range(top + 1):
        for j in range(k - 3, k + 1):
            if (k, j) in monic:
                assert _typed(chain.g(k, j)) == _typed(monic[k, j]), (k, j)
            else:
                with pytest.raises(ValueError):
                    chain.g(k, j)
    lead = ttrr.leading_matrices(spec, top, "family")
    for leading, blocks in (("monic", monic), ("family", reference_chain(spec, top, "family"))):
        for n in range(top):
            g, abc = ttrr.recurrence_blocks(chain, n, lead if leading == "family" else None)
            want = [blocks[n, m] for m in (n, n - 1, n - 2) if m >= 0]
            assert [_typed(m) for m in g] == [_typed(m) for m in want], (leading, n)
            for j, got in enumerate(abc, 1):
                want = reference_abc(blocks, n, j)
                assert [_typed(m) for m in got] == [_typed(m) for m in want], (leading, n, j)


def test_l_matrix_matches_the_reference():
    for n in range(6):
        for j in (1, 2):
            assert _typed(l_matrix(n, j, 2)) == _typed(reference_l_matrix(n, j)), (n, j)


@pytest.mark.parametrize("name", [fam.RACAH, fam.CH])
def test_gl_is_the_product_with_l(name):
    # a column placement, equal to G_{n,m} L_{m,j} entry by entry and type by
    # type; an entry no column of G reaches stays Fraction(0).  Lambda_n times
    # it is the family-leading block's placement, (Lambda_n G_{n,m}) L_{m,j},
    # and L_{n,j} G_{n+1,m} is a pick of G's rows, equal to the product
    spec = fam.FamilySpec(name)
    chain = ttrr.GChain(spec, 4)
    lead = ttrr.leading_matrices(spec, 4, "family")
    for n in range(4):
        for m in range(n - 2, n + 1):
            for j in (1, 2):
                got = ttrr._gl(chain, n, m, j)
                want = chain.g(n, m) * l_matrix(m, j, 2) if m >= 0 else None
                if want is None:
                    assert (got.rows, got.cols) == (n + 1, m + 2)
                    assert _typed(got) == _typed(ExactMatrix.zero(n + 1, m + 2))
                    continue
                assert _typed(got) == _typed(want), (n, m, j)
                zeros = [x for row in got.data for x in row if not x]
                assert zeros and all(type(x) is Fraction for x in zeros), (n, m, j)
                family = (lead[n] * chain.g(n, m)) * l_matrix(m, j, 2)
                assert _typed(lead[n] * got) == _typed(family), (n, m, j)
                if m >= n - 1:
                    picked = ttrr._lg(chain, n, m, j)
                    want = l_matrix(n, j, 2) * chain.g(n + 1, m)
                    assert _typed(picked) == _typed(want), (n, m, j)


@pytest.mark.parametrize("draw", ["default", 1, 5])
@pytest.mark.parametrize("name", ttrr.TTRR_FAMILIES)
def test_slot_readers_match_the_reference(name, draw):
    # the S_n / T_n blocks on the monomials and, changed to it, on the paper's
    # basis, and the oracle's leading block, in value and in entry type, for
    # n <= 5
    params = None if draw == "default" else _perfbench_draw(draw)[fam.base_family(name)]
    spec = fam.FamilySpec(name, params=params)
    table = coefficients(spec)
    monomials = (MONOMIAL, MONOMIAL)
    for n in range(6):
        diag, *want = reference_phi_blocks(table, n, monomials)
        assert diag == ExactMatrix.identity(n + 1).scale(-table.eigenvalue((n, 0))), n
        got = ttrr._phi_blocks(table, n)
        assert [_typed(m) for m in got] == [_typed(m) for m in want], n
        want = reference_phi_blocks(table, n, ttrr.working_bases(spec))[1:]
        got = ttrr.sn_tn_derived(spec, n, table)
        assert [_typed(m) for m in got] == [_typed(m) for m in want], n
        got, want = ttrr.leading_matrix_oracle(spec, n), reference_leading_matrix_oracle(spec, n)
        assert _typed(got) == _typed(want), n


# -- more than two variables: the machinery reads its sizes from the slots ------------

def test_ch_tri_table_cancels_lambda_n_on_the_monomial_slots():
    spec = fam.FamilySpec(fam.CH_TRI)
    table = coefficients(spec)
    assert ttrr.working_bases(spec) == (MONOMIAL,) * 3
    for n in range(5):
        slots = graded(n, 3)
        lam = table.eigenvalue(slots[0])
        images = table.images(slots)
        for e in slots:
            top = {x: c for x, c in images[e].coeffs.items() if sum(x) == n}
            assert MPoly(3, top) == MPoly(3, {e: -lam}), (n, e)
        # the derivation makes the same check and keeps the two blocks below
        s, t = ttrr._phi_blocks(table, n)
        assert (s.rows, s.cols, t.cols) == (len(slots), comb(n + 1, 2), comb(n, 2)), n


def test_ch_tri_monic_generation_is_the_family_over_its_leading_block(monkeypatch):
    # the claim stays bivariate (TTRR_FAMILIES), so the trivariate family is
    # admitted in this test only: monic P_n = G_n^{-1} P_n(family), G_n read
    # off the interpolated family vector
    monkeypatch.setattr(ttrr, "TTRR_FAMILIES", ttrr.TTRR_FAMILIES + (fam.CH_TRI,))
    spec = fam.FamilySpec(fam.CH_TRI)
    monic = ttrr.generate(spec, 3, "monic")
    for n, vec in enumerate(monic):
        assert len(vec.entries) == comb(n + 2, 2)
        g_inverse = exact_inverse(ttrr.leading_matrix_oracle(spec, n))
        family = g_inverse.apply_rows(ttrr.family_poly_vector(spec, n).entries)
        for k, (got, want) in enumerate(zip(vec.entries, family)):
            assert (got - want).is_zero(), (n, k)


# -- A/B/C matrices and generation ------------------------------------------------------

def test_monic_abc_shapes_and_l_selection():
    spec = fam.FamilySpec(fam.RACAH)
    chain = ttrr.GChain(spec, 4)
    for n in range(3):
        for j in (1, 2):
            a, b, c = ttrr.abc_matrices(chain, n, j)
            assert (a.rows, a.cols) == (n + 1, n + 2)
            assert (b.rows, b.cols) == (n + 1, n + 1)
            assert a == l_matrix(n, j, 2)  # monic case: A_{n,j} = L_{n,j}
            if n >= 1:
                assert (c.rows, c.cols) == (n + 1, n)
    # B_{0,j} = -A_{0,j} G_{1,0} G_{0,0}^{-1}
    a0, b0, _ = ttrr.abc_matrices(chain, 0, 1)
    expect = (a0 * chain.g(1, 0)).scale(-1) * exact_inverse(chain.g(0, 0))
    assert b0 == expect


def test_rank_conditions_at_default_parameters():
    # the family leading's A and C, the monic ones conjugated by invertible
    # leading matrices, have the monic ranks
    for name in (fam.RACAH, fam.WILSON, fam.CH):
        spec = fam.FamilySpec(name)
        chain = ttrr.GChain(spec, 3)
        lead = ttrr.leading_matrices(spec, 3, "family")
        for n in range(2):
            for blocks in (None, lead):
                (a1, _, c1), (a2, _, c2) = ttrr.recurrence_blocks(chain, n, blocks)[1]
                assert a1.rank() == n + 1 and a2.rank() == n + 1
                assert a1.vstack(a2).rank() == n + 2
                if c1 is not None:
                    assert c1.rank() == n and c2.rank() == n
                    assert c1.hstack(c2).rank() == n + 1


def test_monic_generation_unit_leading():
    for name in ttrr.TTRR_FAMILIES:
        spec = fam.FamilySpec(name)
        vectors = ttrr.generate(spec, 3, leading="monic")
        assert vectors[0].entries == [MPoly.const(2, Fraction(1))]
        for n, vec in enumerate(vectors):
            for k, p in enumerate(vec.entries):
                assert p.coeff((n - k, k)) == 1
                for c in range(n + 1):
                    if c != k:
                        assert p.coeff((n - c, c)) == 0


@pytest.mark.parametrize("leading", ["Monic", "families", ""])
def test_unknown_leading_is_rejected_by_name(leading):
    with pytest.raises(ValueError, match="'monic' or 'family'"):
        ttrr.generate(fam.FamilySpec(fam.CDH), 2, leading=leading)


def test_family_generation_matches_hypergeometric_construction():
    for name in (fam.RACAH, fam.WILSON_BAR, fam.CH):
        spec = fam.FamilySpec(name)
        vectors = ttrr.generate(spec, 3, leading="family")
        for n in range(4):
            oracle = ttrr.family_poly_vector(spec, n)
            for k in range(n + 1):
                assert (vectors[n][k] - oracle[k]).is_zero(), (name, n, k)


def test_recurrence_is_an_exact_polynomial_identity():
    # the conjugated A/B/C on the family vectors, and the monic ones on the
    # monic vectors
    spec = fam.FamilySpec(fam.RACAH)
    chain = ttrr.GChain(spec, 4)
    xvar = MPoly.var(0, 2)
    yvar = MPoly.var(1, 2)
    for leading in ("family", "monic"):
        lead = ttrr.leading_matrices(spec, 4, leading)
        vectors = ttrr.generate(spec, 4, leading=leading)
        for n in range(1, 4):
            abc = ttrr.recurrence_blocks(chain, n, lead)[1]
            for (a, b, c), var in zip(abc, (xvar, yvar)):
                lhs = [var * p for p in vectors[n].entries]
                rhs = a.apply_rows(vectors[n + 1].entries)
                rhs = [r + s for r, s in zip(rhs, b.apply_rows(vectors[n].entries))]
                rhs = [r + s for r, s in zip(rhs, c.apply_rows(vectors[n - 1].entries))]
                for l, r in zip(lhs, rhs):
                    assert (l - r).is_zero(), (leading, n)


def reference_generate(spec, upto, leading):
    """P_0..P_upto solved from the reference chain's A/B/C in the given
    leading, each right-hand side built from binary MPoly operations,
    x_j P_n - B P_n, then - C P_{n-1}: the reference for the monic solve, for
    the family vectors as its change of basis, and for the one combination
    per entry."""
    blocks = reference_chain(spec, upto, leading)
    nvars = spec.nvars
    vectors = [[MPoly.const(nvars, Fraction(1))]]
    for n in range(upto):
        a_j, rhs = [], []
        pn = vectors[n]
        for var in range(nvars):
            a, b, c = reference_abc(blocks, n, var + 1)
            a_j.append(a)
            part = [MPoly.var(var, nvars) * p - s for p, s in zip(pn, reference_apply_rows(b, pn))]
            if c is not None:
                part = [r - s for r, s in zip(part, reference_apply_rows(c, vectors[n - 1]))]
            rhs += part
        vectors.append(solve_stacked(reduce(ExactMatrix.vstack, a_j), rhs))
    return vectors


@pytest.mark.parametrize("draw", ["default", 3])
@pytest.mark.parametrize("name", ttrr.TTRR_FAMILIES)
def test_generation_matches_the_binary_reference_step(name, draw):
    # value and coefficient type: the pinned reports read values only
    params = None if draw == "default" else _perfbench_draw(draw)[fam.base_family(name)]
    spec = fam.FamilySpec(name, params=params)
    for leading in ("monic", "family"):
        got = ttrr.generate(spec, 4, leading)
        want = reference_generate(spec, 4, leading)
        assert [_typed_polys(v.entries) for v in got] == [_typed_polys(v) for v in want], leading


def test_monic_family_relation_p_equals_gnn_phat():
    # P_n = G_{n,n} Phat_n for the Racah family
    spec = fam.FamilySpec(fam.RACAH)
    monic = ttrr.generate(spec, 3, leading="monic")
    for n in range(4):
        gnn = ttrr.leading_matrix(fam.RACAH, spec.params, n)
        oracle = ttrr.family_poly_vector(spec, n)
        combined = gnn.apply_rows(monic[n].entries)
        for k in range(n + 1):
            assert (combined[k] - oracle[k]).is_zero()


# -- work counted: the S_n / T_n derivations and the G_{k,k} inverses -----------------

def _counted(monkeypatch, module, name):
    """Patch ``module.name`` to record its calls; returns the record."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_each_sn_tn_call_is_one_derivation(monkeypatch):
    # seven families x both leadings at upto 4: each chain derives its own
    # S_k / T_k (k = 1..4) afresh, 56 derivations
    derivations = _counted(monkeypatch, ttrr, "_phi_blocks")
    for name in ttrr.TTRR_FAMILIES:
        for leading in ("family", "monic"):
            ttrr.generate(fam.FamilySpec(name), 4, leading)
    assert len(derivations) == 56


def _wilson_typo(monkeypatch, change):
    printed = pdeverify._TABLE_BUILDERS[fam.WILSON]

    def typo(params):
        coeffs, eigenvalue = printed(params)
        coeffs[change[0]] = coeffs[change[0]] + change[1]
        return coeffs, eigenvalue

    monkeypatch.setitem(pdeverify._TABLE_BUILDERS, fam.WILSON, typo)


def test_a_table_typo_changes_the_derived_sn_tn(monkeypatch):
    spec = fam.FamilySpec(fam.WILSON)
    clean = ttrr.sn_tn_derived(spec, 2)
    # a constant slip in f4 changes S_2 and T_2
    _wilson_typo(monkeypatch, (3, Fraction(1, 1000)))
    assert ttrr.sn_tn_derived(spec, 2) != clean
    assert ttrr.GChain(spec, 2).st[2] != clean
    monkeypatch.undo()
    # an x-linear slip in f7 breaks the -lambda_n I diagonal block, after
    # the clean S_2 / T_2 were derived
    ttrr.sn_tn_derived(spec, 2)
    _wilson_typo(monkeypatch, (6, MPoly.var(0, 2) * Fraction(1, 1000)))
    with pytest.raises(AssertionError, match="degree-2 block"):
        ttrr.sn_tn_derived(spec, 2)
    monkeypatch.undo()
    assert ttrr.sn_tn_derived(spec, 2) == clean


def test_mutating_a_returned_sn_leaves_the_next_result_unchanged():
    spec = fam.FamilySpec(fam.CH)
    sn, tn = ttrr.sn_tn_derived(spec, 3)
    want = (ExactMatrix(sn.data), ExactMatrix(tn.data))
    sn[0, 0] = Fraction(99)
    tn[1, 0] = Fraction(-7)
    ttrr.GChain(spec, 3).st[3][0][1, 1] = Fraction(5)
    assert ttrr.sn_tn_derived(spec, 3) == want


@pytest.mark.parametrize("leading", ["monic", "family"])
def test_generate_scans_each_leading_matrix_once(monkeypatch, leading):
    # no recurrence inverts anything; the family leading scans each of
    # Lambda_1 .. Lambda_4 once for pivots, as its check that the leading
    # matrix is invertible (Lambda_0 = (1)), and the monic one scans none
    inverses = _counted(monkeypatch, ttrr, "exact_inverse")
    scans = _counted(monkeypatch, ttrr, "check_invertible")
    for name in ttrr.TTRR_FAMILIES:
        scans.clear()
        spec = fam.FamilySpec(name)
        ttrr.generate(spec, 4, leading)
        want = [] if leading == "monic" else ttrr.leading_matrices(spec, 4, leading)[1:]
        assert [m for (m,) in scans] == want, name
    assert inverses == []


def test_the_pivot_scan_names_the_column_gauss_jordan_does():
    # a singular Lambda_2 (its second row a copy of the first) is refused by
    # the scan with exact_inverse's message, and on random square matrices,
    # singular ones and Gaussian entries among them, the scan's pivots are
    # those of the Gauss-Jordan elimination, which it replaces as the check
    g = ttrr.leading_matrix(fam.RACAH, fam.FamilySpec(fam.RACAH).params, 2)
    g.data[1] = list(g.data[0])
    for check in (check_invertible, exact_inverse):
        with pytest.raises(ValueError, match=r"^singular matrix: no pivot in column 1$"):
            check(g)
    rng = random.Random(5)
    values = [Fraction(0)] * 4 + [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(8)]
    values += [GaussianRational(1, 2), GaussianRational(0, -1)]
    for _ in range(300):
        n = rng.randint(1, 4)
        rows = [[rng.choice(values) for _ in range(n)] for _ in range(n)]
        if n > 1 and rng.random() < 0.4:
            # one row a multiple of another
            i, j = rng.sample(range(n), 2)
            rows[i] = [Fraction(3, 2) * x for x in rows[j]]
        m = ExactMatrix(rows)
        reduced = [row + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(rows)]
        assert m.pivot_columns() == _reduce(reduced, n), rows
        assert m.rank() == len(m.pivot_columns())


# -- leading matrices ----------------------------------------------------------------

def test_leading_matrices_match_interpolation_oracle():
    for name in ttrr.TTRR_FAMILIES:
        for params in (None, ALT_PARAMS[fam.base_family(name)]):
            spec = fam.FamilySpec(name, params=params)
            for n in range(4):
                closed = ttrr.leading_matrix(name, spec.params, n)
                assert closed == ttrr.leading_matrix_oracle(spec, n), (name, n)


def reference_leading_matrix(family, params, n):
    """The printed closed forms in Fraction arithmetic, a pochhammer call
    and a field product per factor: the reference the integer entries must
    reproduce value for value and type for type."""
    p = params
    out = ExactMatrix.zero(n + 1, n + 1)
    if family == fam.RACAH:
        b0, b1, b2, b3 = p["beta0"], p["beta1"], p["beta2"], p["beta3"]
        for i in range(n + 1):
            for j in range(n + 1):
                out[i, j] = (
                    Fraction(1 if (i + n) % 2 == 0 else -1)
                    * pochhammer(b1 - b0, n - i)
                    * pochhammer(2 * n - i - b0 + b3 - 1, i)
                    * pochhammer(Fraction(i - n), n - j)
                    * pochhammer(n - i - b0 + b2 - 1, n - j)
                    / (factorial(n - j) * pochhammer(b1 - b0, n - j))
                )
    elif family == fam.RACAH_BAR:
        b0, b1, b2, b3 = p["beta0"], p["beta1"], p["beta2"], p["beta3"]
        for i in range(n + 1):
            for j in range(i + 1):
                out[i, j] = (
                    Fraction(comb(i, j))
                    * pochhammer(b2 - b3 - i + 1, i - j)
                    * pochhammer(i - b1 + b3 - 1, j)
                    * pochhammer(i + n - b0 + b3 - 1, n - i)
                )
    elif family == fam.WILSON:
        a, b, c, d, e2 = (p[x] for x in ("a", "b", "c", "d", "e2"))
        sig = a + b + c + d + 2 * e2
        for r in range(n + 1):
            for s in range(r, n + 1):
                out[r, s] = (
                    Fraction(1 if (n - r - s) % 2 == 0 else -1)
                    * comb(n - r, s - r)
                    * pochhammer(2 * n - r - 1 + sig, r)
                    * pochhammer(a + b + n - s, s - r)
                    * pochhammer(a + b + 2 * e2 + n - r - 1, n - s)
                )
    elif family == fam.WILSON_BAR:
        a, b, c, d, e2 = (p[x] for x in ("a", "b", "c", "d", "e2"))
        sig = a + b + c + d + 2 * e2
        for r in range(n + 1):
            for s in range(r + 1):
                out[r, s] = (
                    Fraction(1 if n % 2 == 0 else -1)
                    * comb(r, s)
                    * pochhammer(-c - d - r + 1, r - s)
                    * pochhammer(c + d + r + 2 * e2 - 1, s)
                    * pochhammer(sig + r + n - 1, n - r)
                )
    elif family == fam.CDH:
        for r in range(n + 1):
            for s in range(r, n + 1):
                out[r, s] = Fraction(1 if (n - r - s) % 2 == 0 else -1) * comb(n - r, s - r)
    elif family == fam.CH:
        a1, e2, a3, b1, b3 = (p[x] for x in ("a1", "e2", "a3", "b1", "b3"))
        sig = a1 + a3 + b1 + b3 + 2 * e2
        for r in range(n + 1):
            for s in range(r, n + 1):
                out[r, s] = (
                    Fraction(1 if (r - s) % 2 == 0 else -1)
                    * comb(n - r, s - r)
                    * pochhammer(a1 + b1 + 2 * e2 - r + n - 1, n - s)
                    * pochhammer(a1 + b1 - s + n, s - r)
                    * pochhammer(sig - r + 2 * n - 1, r)
                )
    else:
        a1, e2, a3, b1, b3 = (p[x] for x in ("a1", "e2", "a3", "b1", "b3"))
        sig = a1 + a3 + b1 + b3 + 2 * e2
        for r in range(n + 1):
            for s in range(r + 1):
                out[r, s] = (
                    Fraction(1 if (r - s) % 2 == 0 else -1)
                    * comb(r, s)
                    * pochhammer(a3 + b3 + s, r - s)
                    * pochhammer(a3 + b3 + 2 * e2 + r - 1, s)
                    * pochhammer(sig + r + n - 1, n - r)
                )
    return out


@pytest.mark.parametrize("seed", [None, 1, 2, 3, 7])
def test_leading_matrix_matches_the_fraction_formulas(seed):
    for name in ttrr.TTRR_FAMILIES:
        params = fam.FamilySpec(name).params if seed is None else (
            _perfbench_draw(seed)[fam.base_family(name)]
        )
        for n in range(7):
            got = ttrr.leading_matrix(name, params, n)
            want = reference_leading_matrix(name, params, n)
            assert got == want, (name, seed, n)
            assert [type(x) for row in got.data for x in row] == [
                type(x) for row in want.data for x in row
            ], (name, seed, n)


@pytest.mark.parametrize("beta0, message", [
    (Fraction(2, 3), "beta1-beta0 = 0 hits zero at shift 0"),
    (Fraction(5, 3), "beta1-beta0 = -1 hits zero at shift 1"),
])
def test_degenerate_racah_leading_matrix_raises(beta0, message):
    params = fam.FamilySpec(fam.RACAH, {"beta0": beta0}).params
    with pytest.raises(fam.DegenerateParameterError, match=re.escape(message)):
        ttrr.leading_matrix(fam.RACAH, params, 2)
    # below the first vanishing factor the matrix is built
    ttrr.leading_matrix(fam.RACAH, params, int(beta0 - params["beta1"]))


def test_leading_matrix_base_and_triangularity():
    spec = fam.FamilySpec(fam.RACAH)
    assert ttrr.leading_matrix(fam.RACAH, spec.params, 0) == ExactMatrix.identity(1).scale(
        Fraction(1)
    )
    # first families carry their weight above the diagonal, second families
    # below, matching the factor structure of the products
    n = 3
    g = ttrr.leading_matrix(fam.RACAH, spec.params, n)
    gbar = ttrr.leading_matrix(fam.RACAH_BAR, spec.params, n)
    for i in range(n + 1):
        for j in range(n + 1):
            if j < i:
                assert g.data[i][j] == 0
            if j > i:
                assert gbar.data[i][j] == 0
    cdh = ttrr.leading_matrix(fam.CDH, fam.FamilySpec(fam.CDH).params, 2)
    assert cdh.data[0] == [1, -2, 1]  # signed binomials (-1)^(n-r-s) C(n-r, s-r)
    assert cdh.data[1] == [0, 1, -1]
    assert cdh.data[2] == [0, 0, 1]


# -- connection problem ---------------------------------------------------------------

def test_connection_identity_and_pointwise_mapping():
    rspec = fam.FamilySpec(fam.RACAH)
    bspec = fam.FamilySpec(fam.RACAH_BAR)
    for n in range(4):
        g = ttrr.leading_matrix(fam.RACAH, rspec.params, n)
        gbar = ttrr.leading_matrix(fam.RACAH_BAR, rspec.params, n)
        c = ttrr.connection(g, gbar)
        cback = ttrr.connection(gbar, g)
        assert c * cback == ExactMatrix.identity(n + 1)
        for pt in PTS2:
            pvals = [fam.eval_family(rspec, (n - k, k), pt) for k in range(n + 1)]
            bvals = [fam.eval_family(bspec, (n - k, k), pt) for k in range(n + 1)]
            assert c.apply_rows(bvals) == pvals


def test_connection_same_matrix_is_identity():
    g = ttrr.leading_matrix(fam.RACAH, fam.FamilySpec(fam.RACAH).params, 2)
    assert ttrr.connection(g, g) == ExactMatrix.identity(3)
