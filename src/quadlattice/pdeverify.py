"""Coefficient tables of the divided-difference equations, their action
pointwise (on stencil functions) and symbolically (on polynomials), exact
residual verification, and the coefficient-recovery oracle.

A fourth-order bivariate table lists eight polynomials f1..f8 paired with
the mixed operators

    f1 E(2,2)  f2 E(1,2)  f3 E(2,1)  f4 E(1,1)
    f5 E(2,0)  f6 E(0,2)  f7 E(1,0)  f8 E(0,1)

where the entry 2 stands for D^2 in that variable and the entry 1 for SD;
the sixth-order trivariate table lists twenty-six such polynomials over the
cube {0,1,2}^3.  A table's residual on a family member must vanish at every
nonsingular grid point; on a member of total degree k, a tensor grid of
k + 1 distinct lattice values per axis promotes the pointwise zeros to a
polynomial identity (see :func:`check_proof_grid`).  A sweep's one
:class:`StencilGrid` (:func:`equation_sweep`) keeps its folded stencils.

The table annihilating a difference derivative of the solutions follows
from the base table by one rule over the operator indices, taken once per
differentiated variable (see :func:`derived_coefficients`).
"""

from __future__ import annotations

from collections.abc import Callable
from fractions import Fraction
from functools import partial
from itertools import product
from math import lcm
from operator import add, mul
from typing import NamedTuple

from .exactfield import GaussianRational, field_str, from_parts, gauss, gdot, gmul, integer_parts
from .families import (
    CDH,
    CH,
    CH_TRI,
    RACAH,
    WILSON,
    WILSON_BAR,
    FamilySpec,
    base_family,
    check_label,
    check_point,
    family_function,
    family_grid,
)
from .fbasis import MPoly, graded, interpolate_on_grid, poly_shift_pair
from .latticeops import (
    SingularPointError,
    grid_axes,
    half_step,
    lattice_value,
    partial_D,
    shifted_points,
)
from .matrix import ExactMatrix, exact_inverse

ZERO = Fraction(0)
ONE = Fraction(1)
HALF = Fraction(1, 2)
II = GaussianRational(0, 1)

# ordering of the mixed-operator indices attached to f1..f8
BIVARIATE_OPS = ((2, 2), (1, 2), (2, 1), (1, 1), (2, 0), (0, 2), (1, 0), (0, 1))

# f1..f26 of the trivariate equation, same encoding over (x, y, z)
TRIVARIATE_OPS = (
    (0, 0, 1), (0, 1, 0), (1, 0, 0),
    (0, 1, 1), (1, 0, 1), (1, 1, 0),
    (0, 0, 2), (0, 2, 0), (2, 0, 0),
    (1, 1, 1),
    (0, 1, 2), (2, 1, 0), (0, 2, 1), (2, 0, 1), (1, 2, 0), (1, 0, 2),
    (1, 1, 2), (1, 2, 1), (2, 1, 1),
    (0, 2, 2), (2, 2, 0), (2, 0, 2),
    (1, 2, 2), (2, 1, 2), (2, 2, 1),
    (2, 2, 2),
)

OPERATORS = {2: BIVARIATE_OPS, 3: TRIVARIATE_OPS}
ORDER_NAMES = ("zeroth", "first", "second", "third", "fourth", "fifth", "sixth")


def validate_mixed_index(lindex, nvars):
    lindex = tuple(int(v) for v in lindex)
    if len(lindex) != nvars or any(v not in (0, 1, 2) for v in lindex):
        raise ValueError(f"bad mixed-operator index {lindex}")
    return lindex


class Equation(NamedTuple):
    """A printed equation lambda(label) P + (L P)(point) = 0 with a
    label-free operator L, as the record (fold, eigenvalue).

    ``fold(point)`` is L at the point as one integer stencil
    ``(den, {q: (A, B)})``: the neighbour q weighs (A + Bi) / den, with den
    a nonzero integer.  A zero weight is not kept, so no residual samples
    its neighbour.  A nine-term form's fold keeps its builder's numerators
    over the form's stated denominator, which may be negative (Wilson's at
    x < 0); a :class:`CoeffTable` contracts its operators into a positive
    one.  Every consumer divides through ``Fraction`` or
    ``exactfield.from_parts``, so either sign gives the same values.  No
    residual reads field weights: the Fraction view (:func:`fraction_view`)
    is built only by :func:`stencil_weights` and the recovery.  The record
    keeps no stencil; a sweep's :class:`StencilGrid` does.
    """

    fold: Callable
    eigenvalue: Callable


class CoeffTable:
    """The printed coefficients f_1..f_k and the eigenvalue closure of one
    divided-difference equation, on its family's lattices.  The operator
    list follows from the number of variables, the order from the top
    operator whose coefficient is nonzero.  Its ``fold`` and ``eigenvalue``
    are an :class:`Equation`'s.  The coefficients are a tuple, so neither
    its rows nor a sweep's folded stencils can go stale.

    Each f_i is a polynomial and each E_l a tensor product of one-variable
    operators, so the table's operator is a sum of terms
    c * prod_v x_v^(a_v) E^(v)_(l_v), each keyed per variable by its pair
    (a_v, l_v).  The table splits its coefficients into these terms on its
    first fold, over one denominator.  Only a variable's row depends on the
    coordinate: for each pair the terms use in it, x_v(s)^a times the axis
    entry's weights (:func:`_axis_row`), built once per (variable,
    coordinate) with the axis entries it uses, so each of those is built
    once per (variable, coordinate, entry) too.  The engine contracts the
    last variable first (:func:`contract_terms`), and the partial result
    after variables v..p-1 depends on (s_v, .., s_(p-1)) only: the table
    keeps it under that suffix, so a bivariate grid contracts y once per
    y-coordinate and x once per point, and no coefficient is evaluated at a
    point.

    A row that would need a singular axis entry is not built: a point on
    that coordinate folds from its f_i at the point (:func:`fold_terms`), so
    a zero f_i skips its operator and a nonzero one raises for the first
    denominator nested application meets.

    The symbolic route (:meth:`images`) keeps a split of its own, built on
    its first call from ``coeffs`` and never from the pointwise terms: each
    f_i's monomial terms as Gaussian-integer numerators over one
    denominator (:func:`_symbolic_split`), and per lattice the images of
    x^a under the identity, S D and D^2 (:func:`_univariate_images`) for
    a = 0 up to the highest exponent asked so far of a variable on it
    (variables on equal lattices share them), so the state grows with the
    degree asked and no further.
    """

    __slots__ = (
        "coeffs", "eigenvalue", "lattices", "_terms", "_rows", "_suffixes", "_split", "_univariate"
    )

    def __init__(self, coeffs, eigenvalue, lattices):
        self.coeffs = tuple(coeffs)
        self.lattices = tuple(lattices)
        if len(self.coeffs) != len(self.lindices):
            raise ValueError(
                f"{self.nvars} variables take {len(self.lindices)} coefficients,"
                f" not {len(self.coeffs)}"
            )
        self._check_structure()
        self.eigenvalue = eigenvalue
        self._terms = None
        self._rows = {}
        self._suffixes = {}
        self._split = None
        self._univariate = {}

    def fold(self, point):
        """sum f_i E_i at the point as an :class:`Equation`'s integer stencil
        ``(den, {q: (A, B)})``, den positive and zero weights dropped,
        contracted from the rows of its coordinates; a zero f_i skips its
        operator, singular or not."""
        if self._terms is None:
            self._terms = _table_terms(
                self.nvars, ((lind, fi.coeffs) for fi, lind in zip(self.coeffs, self.lindices))
            )
        den, terms, keys = self._terms
        rows = [self._row(var, point[var], used) for var, used in enumerate(keys)]
        if None in rows:
            latpt = self.lattice_point(point)
            pairs = zip(self.coeffs, self.lindices)
            return fold_terms(
                self.lattices, point, [(ci, lind) for fi, lind in pairs if (ci := fi.eval(latpt))]
            )
        return contract_terms(point, den, terms, rows, self._suffixes)

    def _row(self, var, s, keys):
        """The variable's row at the coordinate s, built with its own axis
        entries, or None where it would need a singular one."""
        if (var, s) not in self._rows:
            lattice = self.lattices[var]
            try:
                self._rows[(var, s)] = _axis_row(lattice, s, keys, partial(_axis_entry, lattice, s))
            except SingularPointError:
                self._rows[(var, s)] = None
        return self._rows[(var, s)]

    def images(self, exponents):
        """{e: (sum f_i E_i) x^e}, a new MPoly for each exponent tuple e.

        E_l is a tensor product of one-variable operators, so
        E_l x^e = prod_v U_(l_v)(x_v^(e_v)) with U_0 x^a = x^a,
        U_1 x^a = S D x^a and U_2 x^a = D^2 x^a, read from the kept
        univariate images (extended to the highest e_v asked).  Each term
        c x^p of each f_i times that product is summed in Gaussian integers
        over den * prod_v d_(v, e_v), and each coefficient becomes one field
        value at the end: a GaussianRational where a GaussianRational
        coefficient of some f_i reaches it, even when it is real, else a
        Fraction; a zero coefficient is dropped.  That is the type the
        Horner route's MPoly sums give, save where such a sum cancels to
        exactly zero part-way and goes on in Fractions alone."""
        exponents = list(exponents)
        if self._split is None:
            self._split = _symbolic_split(self.coeffs, self.lindices)
        axes = [self._univariate.setdefault(lattice, []) for lattice in self.lattices]
        for var, images in enumerate(axes):
            for a in range(len(images), max((e[var] + 1 for e in exponents), default=0)):
                images.append(_univariate_images(self.lattices[var], a))
        den, split = self._split
        return {e: _monomial_image(self.nvars, den, split, axes, e) for e in exponents}

    @property
    def lindices(self):
        return OPERATORS[self.nvars]

    @property
    def order(self):
        top = max((sum(lind) for fi, lind in zip(self.coeffs, self.lindices) if fi), default=0)
        return ORDER_NAMES[top]

    @property
    def nvars(self):
        return len(self.lattices)

    def _check_structure(self):
        # deg f_i <= |l_i|; f_i may depend on a variable l_i leaves alone only if
        # no operator with a nonzero f_j acts on it, as on a form's other variable
        pairs = list(zip(self.coeffs, self.lindices))
        acted = {var for fi, lind in pairs if fi for var, l in enumerate(lind) if l}
        for fi, lind in pairs:
            if fi.total_degree() > sum(lind):
                raise AssertionError(
                    f"coefficient for E{lind} exceeds degree {sum(lind)}: {fi.coeffs}"
                )
            for var, l in enumerate(lind):
                if l == 0 and var in acted and fi.depends_on(var):
                    raise AssertionError(
                        f"coefficient for E{lind} depends on inactive variable {var}"
                    )

    def lattice_point(self, point):
        return tuple(lattice_value(l, v) for l, v in zip(self.lattices, point))

    def to_json(self):
        return {
            "order": self.order,
            "coefficients": {
                f"f{i + 1}": fi.to_json() for i, fi in enumerate(self.coeffs)
            },
            "operators": [list(l) for l in self.lindices],
        }


# ---------------------------------------------------------------------------
# pointwise mixed-operator application
# ---------------------------------------------------------------------------

def _axis_entry(lattice, s, l):
    """S D (l = 1) or D^2 (l = 2) in one variable at the coordinate s:
    ``(den, {o: (A, B)}, {o: coordinate})``, the weights of the neighbours at
    the offsets o = 1, 0, -1 as integers over their own common denominator,
    zero weights dropped.  The inner D denominators at s + 1/2 and s - 1/2
    are checked first, then D^2's outer one at s: the order nested
    application meets them."""
    up, down = shifted_points(lattice, s)
    up_up, _, inv_up = half_step(lattice, up)
    down_down, inv_down = half_step(lattice, down)[1:]
    if l == 2:
        outer = half_step(lattice, s)[2]
        w_up, w_down = outer * inv_up, -outer * inv_down
    else:
        w_up, w_down = HALF * inv_up, HALF * inv_down
    den, parts = integer_parts((w_up, w_down - w_up, -w_down))
    weights = {o: w for o, w in zip((1, 0, -1), parts) if w[0] or w[1]}
    return den, weights, {1: up_up, 0: s, -1: down_down}


def fraction_view(stencil):
    """The field weights {q: w} of an integer stencil ``(den, {q: (A, B)})``:
    a Fraction where B is 0, else a GaussianRational."""
    den, weights = stencil
    return {q: from_parts(den, a, b) for q, (a, b) in weights.items()}


def _dot(den, weights, f):
    """sum w f(q) over the integer weights {q: (A, B)} over ``den``: the
    sampled values over one denominator, one integer dot product, and one
    field value at the end, a Fraction when real (as ``demote`` gives).
    A zero weight samples nothing."""
    live = [(q, w) for q, w in weights.items() if w[0] or w[1]]
    vden, values = integer_parts([f(q) for q, _ in live])
    re = im = 0
    for (_, (a, b)), (c, d) in zip(live, values):
        re += a * c - b * d
        im += a * d + b * c
    if not (re or im):
        return ZERO
    return from_parts(den * vden, re, im)


def _table_terms(nvars, polys):
    """(den, {key: (A, B)}, keys): the monomial terms c x^e of every
    (lindex, {e: c}) in ``polys``, keyed per variable by (e_v, l_v), equal
    keys merged, each c as (A + Bi) / den over one denominator, zero terms
    dropped; and for each of the nvars variables the set of (power, entry)
    pairs the terms use in it."""
    merged = {}
    for lind, monomials in polys:
        for exps, c in monomials.items():
            key = tuple(zip(exps, lind))
            merged[key] = merged[key] + c if key in merged else c
    den, parts = integer_parts(merged.values())
    terms = {key: w for key, w in zip(merged, parts) if w[0] or w[1]}
    return den, terms, [{key[var] for key in terms} for var in range(nvars)]


def _axis_row(lattice, s, keys, entry):
    """One variable's factors at the coordinate s:
    ``(den, {(a, l): {o: (A, B)}}, {o: coordinate})``, for each key (a, l)
    the lattice value x(s)^a times the weights of the axis entry l at the
    offsets o (``entry(l)`` gives it, as :func:`_axis_entry` builds it), as
    Gaussian integers over one row denominator, zero weights dropped.  Entry
    0 weighs only the offset 0."""
    entries, top = {}, 0
    for a, l in keys:
        if l and l not in entries:
            entries[l] = entry(l)
        top = max(top, a)
    scale = lcm(*(d for d, _, _ in entries.values()))
    if top:
        # x^a over the row's xden^top
        xden, ((xa, xb),) = integer_parts((lattice_value(lattice, s),))
        powers = [gmul([(xa, xb)] * a + [(xden, 0)] * (top - a)) for a in range(top + 1)]
    else:
        xden, powers = 1, ((1, 0),)
    row = {}
    for a, l in keys:
        pa, pb = powers[a]
        if not (pa or pb):
            row[(a, l)] = {}
        elif l:
            # x^a times each weight of the entry, over the row's denominator
            d, weights, _ = entries[l]
            ka, kb = (scale // d) * pa, (scale // d) * pb
            row[(a, l)] = {
                o: (ka * wa - kb * wb, ka * wb + kb * wa) for o, (wa, wb) in weights.items()
            }
        else:
            row[(a, l)] = {0: (scale * pa, scale * pb)}
    coords = next(iter(entries.values()))[2] if entries else {0: s}
    return scale * xden ** top, row, coords


def fold_terms(lattices, point, pairs):
    """The integer stencil ``(den, {q: (A, B)})`` with sum w f(q) = sum of
    c (E_lindex f)(point) over the (c, lindex) in ``pairs``: one weight per
    neighbour q, zero weights dropped, so no residual samples their
    neighbours.  The pointwise views and the points of a table's singular
    row fold here.

    Every operator denominator depends on its own coordinate only, so E_l is
    the tensor product of one-variable weights (:func:`_axis_entry`), built
    once per (variable, entry) and shared by every operator asked for.  The
    pairs are the terms of :func:`_table_terms` at power 0 in every
    variable, contracted by :func:`contract_terms` as a table's are.
    """
    point = tuple(point)
    nvars = len(point)
    # denominators are met as nested application meets them: operator by
    # operator, last variable first
    entries = [{} for _ in point]
    for _, lindex in pairs:
        for var in range(nvars - 1, -1, -1):
            l = lindex[var]
            if l and l not in entries[var]:
                entries[var][l] = _axis_entry(lattices[var], point[var], l)
    zeros = (0,) * nvars
    den, terms, keys = _table_terms(nvars, ((lind, {zeros: c}) for c, lind in pairs))
    rows = [
        _axis_row(lattice, s, used, entries[var].__getitem__)
        for var, (lattice, s, used) in enumerate(zip(lattices, point, keys))
    ]
    return contract_terms(point, den, terms, rows)


def contract_terms(point, den, terms, rows, suffixes=None):
    """The integer stencil ``(den, {q: (A, B)})``, q weighing (A + Bi) / den,
    at the point of the terms ``{key: (A, B)}`` over ``den``: the one
    contraction of the pointwise engine.  A term c * prod_v x_v^(a_v)
    E^(v)_(l_v) has the key ((a_0, l_0), ..), and ``rows[v]`` is variable
    v's row (:func:`_axis_row`: its powers times its entries, over its own
    denominator) at the point's coordinate; they are contracted one
    variable at a time, in Gaussian integers.

    The last variable is contracted first, so that terms agreeing on the
    earlier keys share one weight table over the later offsets.  With a
    dict ``suffixes``, the partial result after the variables v..p-1
    (v >= 1), which depends on the point's coordinates (s_v, .., s_(p-1))
    only, is kept under them, and the longest one kept is resumed from.
    Zero weights are dropped; callers that need field weights take the
    stencil's :func:`fraction_view`.
    """
    nvars = len(point)
    start = nvars
    if suffixes:
        start = next((v for v in range(1, nvars) if point[v:] in suffixes), nvars)
    if start < nvars:
        den, layer = suffixes[point[start:]]
    else:
        layer = {key: {(): w} for key, w in terms.items()}
    for var in range(start - 1, -1, -1):
        scale, factors, _ = rows[var]
        den *= scale
        merged = {}
        for key, tail in layer.items():
            acc = merged.setdefault(key[:var], {})
            for o, (wa, wb) in factors[key[var]].items():
                for q, (ta, tb) in tail.items():
                    q = (o,) + q
                    a, b = wa * ta - wb * tb, wa * tb + wb * ta
                    if q in acc:
                        xa, xb = acc[q]
                        acc[q] = (xa + a, xb + b)
                    else:
                        acc[q] = (a, b)
        layer = merged
        if suffixes is not None and var:
            suffixes[point[var:]] = den, layer
    return den, {
        tuple(row[2][o] for row, o in zip(rows, q)): w
        for q, w in layer.get((), {}).items()
        if w[0] or w[1]
    }


def stencil_weights(lattices, lindex, point):
    """The exact weights w with (E_{lindex} f)(point) = sum w[q] f(q), zero
    weights dropped: the Fraction view of the engine's integer stencil, kept
    for the tests and for the benchmark's spans.

    Points q are absolute evaluation points (integer real shifts on
    quadratic lattices, integer imaginary shifts otherwise).
    """
    lindex = validate_mixed_index(lindex, len(lattices))
    return fraction_view(fold_terms(lattices, point, [(ONE, lindex)]))


def apply_mixed(lattices, lindex, f, point):
    """(E_{lindex} f)(point): per variable, entry 1 applies S D and entry 2
    applies D^2; entry 0 leaves the variable alone.  A view on the engine
    kept for the tests and for the benchmark's spans."""
    lindex = validate_mixed_index(lindex, len(lattices))
    return _dot(*fold_terms(lattices, point, [(ONE, lindex)]), f)


# ---------------------------------------------------------------------------
# symbolic table action
# ---------------------------------------------------------------------------

def _symbolic_split(coeffs, lindices):
    """(den, [(lindex, [(p, (A, B), typed)])]): the monomial terms c x^p of
    each nonzero f_i beside its operator index, each c as (A + Bi) / den
    over one denominator, ``typed`` true where c is a GaussianRational."""
    den, parts = integer_parts([c for fi in coeffs for c in fi.coeffs.values()])
    parts = iter(parts)
    split = []
    for fi, lindex in zip(coeffs, lindices):
        if fi:
            terms = [(p, next(parts), isinstance(c, GaussianRational)) for p, c in fi.coeffs.items()]
            split.append((lindex, terms))
    return den, split


def _univariate_images(lattice, a):
    """(d, (U_0, U_1, U_2)): x^a, S D x^a and D^2 x^a on the lattice, each
    as its nonzero (power, numerator) pairs over the one denominator d."""
    x_a = MPoly(1, {(a,): ONE})
    polys = (x_a, *poly_shift_pair(poly_shift_pair(x_a, 0, lattice)[1], 0, lattice))
    d, parts = integer_parts([c for q in polys for c in q.coeffs.values()])
    parts = iter(parts)
    return d, tuple([(power, next(parts)[0]) for (power,) in q.coeffs] for q in polys)


def _monomial_image(nvars, den, split, axes, e):
    """(sum f_i E_i) x^e from the split f_i terms over ``den`` and each
    variable's univariate images ``axes[v][a]`` (see
    :meth:`CoeffTable.images`)."""
    factors = []
    for images, a in zip(axes, e):
        d, rows = images[a]
        den *= d
        factors.append(rows)
    re, im, gaussian = {}, {}, set()
    for lindex, terms in split:
        # E_lindex x^e as {exponents: integer numerator}
        tensor = [((), 1)]
        for rows, l in zip(factors, lindex):
            tensor = [(q + (b,), k * n) for q, k in tensor for b, n in rows[l]]
        for p, (ca, cb), typed in terms:
            for q, k in tensor:
                key = tuple(map(add, p, q))
                re[key] = re.get(key, 0) + ca * k
                if cb:
                    im[key] = im.get(key, 0) + cb * k
                if typed:
                    gaussian.add(key)
    out = {}
    for key, a in re.items():
        b = im.get(key, 0)
        if key in gaussian:
            if a or b:
                out[key] = GaussianRational(Fraction(a, den), Fraction(b, den))
        elif a:
            out[key] = Fraction(a, den)
    return MPoly(nvars, out)


def operator_images(table: CoeffTable, n) -> dict:
    """{e: (sum f_i E_i) x^e} for every monomial x^e of total degree <= n,
    each a new MPoly (:meth:`CoeffTable.images`).  They determine the
    table's action on every polynomial of degree <= n
    (:func:`image_sum`)."""
    return table.images(e for d in range(n + 1) for e in graded(d, table.nvars))


def image_sum(images, p: MPoly) -> MPoly:
    """sum_e c_e images[e] over the terms c_e x^e of p, one :meth:`MPoly.combine`
    (zero for p = 0): the image of p read from the images of its monomials."""
    if not p:
        return MPoly.zero(p.nvars)
    return MPoly.combine(p.coeffs.values(), [images[e] for e in p.coeffs])


def table_action(table: CoeffTable, p: MPoly) -> MPoly:
    """(sum f_i E_i) p as a polynomial in the lattice variables: the symbolic
    counterpart of :meth:`CoeffTable.fold`, summed from the images of p's
    monomials (:meth:`CoeffTable.images`)."""
    return image_sum(table.images(p.coeffs), p)


# ---------------------------------------------------------------------------
# the printed coefficient tables
# ---------------------------------------------------------------------------
# Each builder returns the printed f_1..f_k and the eigenvalue lambda(label);
# coefficients() puts them on the family's lattices.

def _xy():
    return MPoly.var(0, 2), MPoly.var(1, 2)


def racah_table(params):
    b0, b1, b2, b3, N = (params[k] for k in ("beta0", "beta1", "beta2", "beta3", "N"))
    x, y = _xy()
    h = HALF
    q = Fraction(1, 4)

    f8 = (b0 - b3) * y - N * (b0 - b2) * (b3 + N)
    f7 = (b0 - b3) * x - N * (b0 - b1) * (b3 + N)
    f6 = (
        -(y ** 2)
        + h * (2 * N * N + 2 * b3 * (b0 + N) - b2 * (b3 + b0)) * y
        - h * N * b2 * (b0 - b2) * (b3 + N)
    )
    f5 = (
        -(x ** 2)
        + h * (2 * b3 * (N + b0) + 2 * N * N - b1 * (b3 + b0)) * x
        - h * N * b1 * (b0 - b1) * (b3 + N)
    )
    f4 = (
        -2 * x * y
        + (2 * N * N + b2 * (1 - b0) + b3 * (b0 - 1 + 2 * N)) * x
        + (b0 - b1) * (b3 + 1) * y
        - N * (b0 - b1) * (b2 + 1) * (b3 + N)
    )
    f3 = (
        (b2 - b3) * x ** 2
        + x
        * (
            -(1 + b1 + b3 - 2 * b0) * y
            + (1 + b1 - 2 * b0 + b2) * N * N
            - b3 * (-b1 - b2 - 1 + 2 * b0) * N
            + h * (b2 - b3) * (b1 * b0 - 2 * b0 + b1)
        )
        + h * b1 * (b3 + 1) * (b0 - b1) * y
        - h * b1 * N * (b2 + 1) * (b3 + N) * (b0 - b1)
    )
    f2 = (
        (b0 - b1) * y ** 2
        + x
        * (
            (b0 + b2 - 2 * b3 - 1) * y
            + (1 - b0 + b2) * N * N
            - b3 * (-1 + b0 - b2) * N
            + h * b2 * (b2 - b3) * (b0 - 1)
        )
        - h * (b0 - b1) * (2 * b3 * N - b3 * b2 + 2 * N * N - 2 * b3 + b2) * y
        - h * (b0 - b1) * N * b2 * (b2 + 1) * (b3 + N)
    )
    f1 = (
        -(x ** 2) * y
        - x * y ** 2
        + (N * N + b3 * N - h * b2 * (b2 - b3)) * x ** 2
        + h * b1 * (b0 - b1) * y ** 2
        + (
            (h * b1 + h - h * b3 - b0) * b2
            - b3
            - h * b1
            + 2 * b0 * b3
            + b0
            + N * N
            - b1 * b3
            + b3 * N
            - h * b1 * b0
        )
        * x
        * y
        + (
            (h * b1 * b0 + h * b2 * b2 + h * b1 * b2 + h * b2 - b0 * b2 + h * b1 - b0)
            * N
            * N
            + h
            * b3
            * (b1 * b0 + b2 * b2 + b1 * b2 + b2 - 2 * b0 * b2 + b1 - 2 * b0)
            * N
            - q * b2 * (b2 - b3) * (b1 * b0 + b1 - 2 * b0)
        )
        * x
        - q * b1 * (b2 - 2 * b3 + 2 * b3 * N + 2 * N * N - b2 * b3) * (b0 - b1) * y
        - q * N * b1 * b2 * (b2 + 1) * (b0 - b1) * (b3 + N)
    )

    lam = lambda label: (label[0] + label[1]) * (b3 - b0 + label[0] + label[1] - 1)
    return [f1, f2, f3, f4, f5, f6, f7, f8], lam


def wilson_table(params):
    a, b, c, d, e2 = (params[k] for k in ("a", "b", "c", "d", "e2"))
    # lattice variables: u = x^2, v = y^2
    u, v = _xy()

    f8 = (
        (-a - b - 2 * e2 - c - d) * v
        + (c + d) * e2 * e2
        + (a * d + c * a + d * b + b * c + 2 * d * c) * e2
        + a * d * c + d * b * a + b * a * c + d * b * c
    )
    f7 = (
        (-a - b - 2 * e2 - c - d) * u
        + (a + b) * e2 * e2
        + (b * c + d * b + a * d + 2 * b * a + c * a) * e2
        + b * a * c + d * b * c + a * d * c + d * b * a
    )
    f6 = (
        -(v ** 2)
        + (
            b * e2 + b * a + 2 * c * e2 + c * a + a * e2 + e2 * e2
            + b * c + d * c + d * b + 2 * e2 * d + a * d
        )
        * v
        - d * c * (e2 + b) * (e2 + a)
    )
    f5 = (
        -(u ** 2)
        + (
            e2 * e2 + 2 * a * e2 + e2 * d + a * d + 2 * b * e2 + b * a
            + b * c + c * e2 + d * c + d * b + c * a
        )
        * u
        - b * a * (e2 + d) * (e2 + c)
    )
    f4 = (
        -2 * u * v
        + (d + c + 2 * c * e2 + c * a + b * c + 2 * d * c + d * b + 2 * e2 * d + a * d) * u
        + (2 * a * e2 + c * a + a * d + a + 2 * b * e2 + 2 * b * a + b * c + d * b + b) * v
        - (c + d) * (a + b) * e2 * e2
        + (
            -2 * d * b * a - 2 * a * d * c - a * d - 2 * d * b * c - c * a - d * b
            - b * c - 2 * b * a * c
        )
        * e2
        - 2 * d * b * a * c - a * d * c - d * b * a - b * a * c - d * b * c
    )
    f3 = (
        (c + d) * u ** 2
        - b * a * (2 * e2 + d + c + 1) * v
        + (1 + 2 * a + 2 * e2 + c + d + 2 * b) * u * v
        + b * a * ((c + d) * e2 * e2 + (d + c + 2 * d * c) * e2 + d * c)
        + (
            (-c - d) * e2 * e2
            + (-2 * a * d - 2 * b * c - 2 * c * a - 2 * d * b - c - d - 2 * d * c) * e2
            - d * b - c * a - b * c - 2 * a * d * c - d * c - d * b * a - b * a * c
            - a * d - 2 * d * b * c
        )
        * u
    )
    f2 = (
        (a + b) * v ** 2
        - d * c * (1 + a + b + 2 * e2) * u
        + (a + b + 2 * e2 + 2 * c + 2 * d + 1) * u * v
        + d * c * ((a + b) * e2 * e2 + (2 * b * a + a + b) * e2 + b * a)
        + (
            (-a - b) * e2 * e2
            + (-a - 2 * b * a - 2 * a * d - 2 * b * c - b - 2 * c * a - 2 * d * b) * e2
            - d * b * c - b * a - c * a - a * d - 2 * d * b * a - b * c - a * d * c
            - 2 * b * a * c - d * b
        )
        * v
    )
    f1 = (
        u ** 2 * v
        + u * v ** 2
        - c * d * u ** 2
        - a * b * v ** 2
        + (
            (-2 * c - 2 * b - 2 * d - 1 - 2 * a) * e2
            - e2 * e2 - a - b - d - c - d * c - b * a
            - 2 * c * a - 2 * d * b - 2 * b * c - 2 * a * d
        )
        * u
        * v
        + d * c * (e2 * e2 + (2 * b + 2 * a + 1) * e2 + b + b * a + a) * u
        + b * a * (e2 * e2 + (2 * c + 2 * d + 1) * e2 + c + d + d * c) * v
        - a * d * b * e2 * c * (1 + e2)
    )

    sigma = 2 * e2 + a + b + c + d
    lam = lambda label: (label[0] + label[1]) * (sigma + label[0] + label[1] - 1)
    return [f1, f2, f3, f4, f5, f6, f7, f8], lam


def cdh_table(params):
    a, b, c, e2 = (params[k] for k in ("a", "b", "c", "e2"))
    u, v = _xy()

    f8 = -v + (c + b) * e2 + c * b + a * b + c * a
    f7 = -u + e2 * e2 + (c + 2 * a + b) * e2 + c * a + c * b + a * b
    f6 = -c * b * (a + e2) + (c + b + e2 + a) * v
    f5 = -a * (e2 + c) * (e2 + b) + (2 * e2 + a + b + c) * u
    f4 = (
        (-b - c) * e2 * e2
        + (-2 * c * a - 2 * a * b - b - 2 * c * b - c) * e2
        - c * a - 2 * b * a * c - c * b - a * b
        + (1 + 2 * e2 + 2 * a + b + c) * v
        + (c + b) * u
    )
    f3 = (
        a * (e2 * b + 2 * b * e2 * c + c * e2 + c * b + c * e2 * e2 + b * e2 * e2)
        + 2 * u * v
        - a * (2 * e2 + c + 1 + b) * v
        + (-b - a * b - 2 * e2 * b - 2 * c * b - c - 2 * c * e2 - c * a) * u
    )
    f2 = (
        c * b * (2 * a * e2 + a + e2 + e2 * e2)
        + u * v
        - u * c * b
        + v ** 2
        + (
            -e2 - a - b - e2 * e2 - 2 * e2 * b - 2 * a * e2
            - 2 * c * a - c - 2 * c * e2 - c * b - 2 * a * b
        )
        * v
    )
    f1 = (
        -b * e2 * c * a * (1 + e2)
        + (-1 - 2 * c - 2 * e2 - 2 * b - a) * u * v
        + c * b * (1 + 2 * e2 + a) * u
        - a * v ** 2
        + a * (c * b + e2 + b + 2 * e2 * b + e2 * e2 + 2 * c * e2 + c) * v
    )

    lam = lambda label: Fraction(label[0] + label[1])
    return [f1, f2, f3, f4, f5, f6, f7, f8], lam


def ch_table(params):
    a1, e2, a3, b1, b3 = (params[k] for k in ("a1", "e2", "a3", "b1", "b3"))
    x, y = _xy()
    h = HALF
    q = Fraction(1, 4)

    f8 = II * (a1 * b3 + e2 * b3 - e2 * a3 - b1 * a3) + (-a1 - b1 - 2 * e2 - b3 - a3) * y
    f7 = II * (a1 * b3 - b1 * a3 - b1 * e2 + a1 * e2) + (-a1 - b1 - 2 * e2 - b3 - a3) * x
    f6 = (
        h * a1 * b3 + h * e2 * b3 + h * e2 * a3 + h * b1 * a3
        - y ** 2
        + h * II * (a1 + b3 - a3 - b1) * y
    )
    f5 = (
        h * a1 * b3 + h * b1 * a3 + h * a1 * e2 + h * b1 * e2
        + h * II * (a1 + b3 - a3 - b1) * x
        - x ** 2
    )
    f4 = (
        a1 * b3 + b1 * a3
        - 2 * x * y
        - II * (-b3 + a3) * x
        + II * (-b1 + a1) * y
    )
    f3 = -h * II * (a1 * b3 - b1 * a3) + (h * b3 + h * a3) * x + (h * a1 + h * b1) * y
    f2 = -h * II * (a1 * b3 - b1 * a3) + (h * b3 + h * a3) * x + (h * a1 + h * b1) * y
    f1 = (
        -q * a1 * b3 - q * b1 * a3
        + h * x * y
        + q * II * (-b3 + a3) * x
        - q * II * (-b1 + a1) * y
    )

    sigma = a1 - 1 + 2 * e2 + b3 + a3 + b1
    lam = lambda label: (label[0] + label[1]) * (sigma + label[0] + label[1])
    return [f1, f2, f3, f4, f5, f6, f7, f8], lam


def ch_tri_table(params):
    a1, e2, e3, a4, b1, b4 = (
        params[k] for k in ("a1", "e2", "e3", "a4", "b1", "b4")
    )
    x = MPoly.var(0, 3)
    y = MPoly.var(1, 3)
    z = MPoly.var(2, 3)
    h = HALF
    q = Fraction(1, 4)
    o = Fraction(1, 8)
    ssum = -a1 - 2 * e2 - 2 * e3 - b1 - b4 - a4

    f1 = ssum * z - II * (-b4 * a1 + b1 * a4 + e3 * a4 - b4 * e3 + e2 * a4 - b4 * e2)
    f2 = ssum * y - II * (-a1 * e3 + b1 * e3 - b4 * e2 - b4 * a1 + b1 * a4 + e2 * a4)
    f3 = (
        II * (-b1 * e2 + b4 * a1 - b1 * a4 + a1 * e3 - b1 * e3 + a1 * e2) + ssum * x
    )
    f4 = (
        (-2 * z - II * (-b4 + a4)) * y
        + II * (a1 - b1) * z
        + b1 * a4 + e2 * a4 + b4 * a1 + b4 * e2
    )
    f5 = (-2 * z - II * (-b4 + a4)) * x + II * (a1 - b1) * z + b1 * a4 + b4 * a1
    f6 = (
        (-2 * y - II * (-b4 + a4)) * x
        + II * (a1 - b1) * y
        + a1 * e3 + b1 * e3 + b4 * a1 + b1 * a4
    )
    f7 = (
        h * b4 * a1 + h * b1 * a4 + h * e2 * a4 + h * e3 * a4 + h * b4 * e2 + h * b4 * e3
        + h * II * (a1 - b1 - a4 + b4) * z
        - z ** 2
    )
    f8 = (
        h * b4 * a1 + h * a1 * e3 + h * b1 * e3 + h * b1 * a4 + e2 * e3
        + h * e2 * a4 + h * b4 * e2
        + h * II * (a1 - b1 - a4 + b4) * y
        - y ** 2
    )
    f9 = (
        h * a1 * e2 + h * b4 * a1 + h * a1 * e3 + h * b1 * e2 + h * b1 * e3 + h * b1 * a4
        + h * II * (a1 - b1 - a4 + b4) * x
        - x ** 2
    )
    f10 = (a4 + b4) * x + (a1 + b1) * z - II * (b4 * a1 - b1 * a4)
    f11 = (
        (h * b4 + h * a4) * y
        + (h * a1 + e2 + h * b1) * z
        + h * II * (b1 * a4 + e2 * a4 - b4 * a1 - b4 * e2)
    )
    f12 = (
        (h * a1 + h * b1) * y
        + (h * a4 + h * b4 + e3) * x
        - h * II * (-b1 * e3 + b4 * a1 - b1 * a4 + a1 * e3)
    )
    f13 = (
        (h * b4 + h * a4) * y
        + (h * a1 + e2 + h * b1) * z
        + h * II * (b1 * a4 + e2 * a4 - b4 * a1 - b4 * e2)
    )
    f14 = (h * a1 + h * b1) * z + (h * b4 + h * a4) * x - h * II * (b4 * a1 - b1 * a4)
    f15 = (
        (h * a1 + h * b1) * y
        + (h * a4 + h * b4 + e3) * x
        - h * II * (-b1 * e3 + b4 * a1 - b1 * a4 + a1 * e3)
    )
    f16 = (h * a1 + h * b1) * z + (h * b4 + h * a4) * x - h * II * (b4 * a1 - b1 * a4)
    f17 = (
        (h * II * (-b4 + a4) + z) * x
        - h * b1 * a4 - h * II * (a1 - b1) * z - h * b4 * a1
    )
    f18 = (
        (h * II * (-b4 + a4) + z) * x
        - h * b1 * a4 - h * II * (a1 - b1) * z - h * b4 * a1
    )
    f19 = (
        (h * II * (-b4 + a4) + z) * x
        - h * b1 * a4 - h * II * (a1 - b1) * z - h * b4 * a1
    )
    f20 = (
        (h * z + q * II * (-b4 + a4)) * y
        - q * e2 * a4 - q * b1 * a4
        - q * II * (a1 - b1) * z
        - q * b4 * a1 - q * b4 * e2
    )
    f21 = (
        (h * y + q * II * (-b4 + a4)) * x
        - q * a1 * e3 - q * II * (a1 - b1) * y
        - q * b1 * a4 - q * b4 * a1 - q * b1 * e3
    )
    f22 = (
        (h * z + q * II * (-b4 + a4)) * x
        - q * b1 * a4 - q * II * (a1 - b1) * z - q * b4 * a1
    )
    f23 = (
        (-q * a4 - q * b4) * x + (-q * a1 - q * b1) * z + q * II * (b4 * a1 - b1 * a4)
    )
    f24 = (
        (-q * a4 - q * b4) * x + (-q * a1 - q * b1) * z + q * II * (b4 * a1 - b1 * a4)
    )
    f25 = (
        (-q * a4 - q * b4) * x + (-q * a1 - q * b1) * z + q * II * (b4 * a1 - b1 * a4)
    )
    f26 = (
        (-o * II * (-b4 + a4) - q * z) * x
        + o * b4 * a1 + o * b1 * a4 + o * II * (a1 - b1) * z
    )

    sigma = a1 + 2 * e2 + 2 * e3 + a4 + b1 + b4
    lam = lambda label: (label[0] + label[1] + label[2]) * (
        label[0] + label[1] + label[2] - 1 + sigma
    )
    coeffs = [
        f1, f2, f3, f4, f5, f6, f7, f8, f9, f10, f11, f12, f13,
        f14, f15, f16, f17, f18, f19, f20, f21, f22, f23, f24, f25, f26,
    ]
    return coeffs, lam


# keyed by base family: a second family solves its base family's equation
_TABLE_BUILDERS = {
    RACAH: racah_table,
    WILSON: wilson_table,
    CDH: cdh_table,
    CH: ch_table,
    CH_TRI: ch_tri_table,
}


def coefficients(spec: FamilySpec) -> CoeffTable:
    """The printed coefficient table of the equation the family solves: the
    builder's f_i and eigenvalue on the family's lattices."""
    coeffs, eigenvalue = _TABLE_BUILDERS[base_family(spec.family)](spec.params)
    return CoeffTable(coeffs, eigenvalue, spec.lattices())


# ---------------------------------------------------------------------------
# derived tables (difference derivatives of solutions)
# ---------------------------------------------------------------------------

# the variables a direction differentiates, in the order it takes them
DIRECTIONS = {"x": (0,), "y": (1,), "xy": (1, 0)}


def derived_coefficients(base: CoeffTable, direction) -> CoeffTable:
    """Coefficient table annihilating the requested difference derivative of
    the base equation's solutions: one rule over the operator indices, taken
    once per variable v of the direction in the order of ``DIRECTIONS``
    ("xy" takes D in y first, then in x).  With e the v-entry of the index l,
    l+ the index with that entry raised to e + 1 and l1 the index with it set
    to 1, the coefficient of E_l becomes

        e = 0:  f_l + D f_{l+}             (f_l is free of v, by the structure check)
        e = 1:  S f_l + eps D f_l + D f_{l+}
        e = 2:  S f_l + eps S f_{l1} + u2 D f_{l1}

    with S and D in v, x(s +- 1/2) = x(s) +- w + eps / 2 and w^2 = u2 on v's
    lattice; the eigenvalue adds each variable's shift in turn.
    """
    if base.nvars != 2:
        raise ValueError("derived tables are defined for fourth-order tables")
    if direction not in DIRECTIONS:
        raise ValueError(f"unknown direction {direction!r}")
    table = base
    for var in DIRECTIONS[direction]:
        lat = table.lattices[var]
        (w0, w1), c0 = lat.shift_algebra()
        u2 = w1 * MPoly.var(var, 2) + MPoly.const(2, w0)
        eps = 2 * c0
        f = dict(zip(table.lindices, table.coeffs))
        # (S f_l, D f_l) for each index that acts on v: one shift pair each
        sd = {l: poly_shift_pair(fl, var, lat) for l, fl in f.items() if l[var]}
        coeffs = []
        for l, fl in f.items():
            e = l[var]
            up, one = (l[:var] + (k,) + l[var + 1:] for k in (e + 1, 1))
            if e == 0:
                coeffs.append(fl + sd[up][1])
            elif e == 1:
                coeffs.append(sd[l][0] + eps * sd[l][1] + sd[up][1])
            else:
                coeffs.append(sd[l][0] + eps * sd[one][0] + u2 * sd[one][1])
        shift = _sd_shift(table, var)
        lam = lambda label, _b=table.eigenvalue, _s=shift: _b(label) + _s
        table = CoeffTable(coeffs, lam, table.lattices)
    return table


def _sd_shift(table: CoeffTable, var) -> Fraction:
    """D_v of the coefficient of S D in the variable v alone, which must be a
    constant."""
    sd = tuple(int(i == var) for i in range(table.nvars))
    fl = table.coeffs[table.lindices.index(sd)]
    shift = poly_shift_pair(fl, var, table.lattices[var])[1]
    if shift.total_degree() > 0:
        raise AssertionError("eigenvalue shift is not constant")
    return shift.coeff((0,) * table.nvars)


def eigenvalue_shift(base: CoeffTable, direction) -> Fraction:
    """The eigenvalue shift of a one-variable direction: D_x f7 (x) or D_y f8
    (y), which must be a constant."""
    variables = DIRECTIONS.get(direction, ())
    if len(variables) != 1:
        raise ValueError(f"unknown direction {direction!r}")
    return _sd_shift(base, *variables)


# ---------------------------------------------------------------------------
# residual evaluation
# ---------------------------------------------------------------------------

def join_eigenvalue(lam, den, weights, own):
    """(den * b, joined): the integer stencil ``(den, {key: (A, B)})`` with
    lambda = a / b in integers joined at the key ``own``, the point's own:
    every weight times b, and a den added to own's weight (a new last entry
    where the stencil does not weigh own).  The keys are the caller's, and
    the joined weights a new dict, so the stencil stays as it is.  The one
    place an eigenvalue meets a stencil."""
    lam_den, ((la, lb),) = integer_parts((lam,))
    joined = {q: (a * lam_den, b * lam_den) for q, (a, b) in weights.items()}
    a, b = joined.get(own, (0, 0))
    joined[own] = (a + la * den, b + lb * den)
    return den * lam_den, joined


def table_residual_on(equation: Equation, f, label, point):
    """lambda(label) f(point) + sum w f(q) over the equation's integer
    stencil ``(den, {q: (A, B)})`` at the point: the shape of every printed
    equation, for any stencil function f.

    The eigenvalue is joined at the point (:func:`join_eigenvalue`), so f
    is sampled once per neighbour of nonzero joined weight, in the joined
    weights' order; the sum is one integer dot product with the samples
    over their common denominator; a zero weight (the point's own, when
    lambda cancels it) samples nothing.  The residual is zero exactly when
    both integer parts are; only a nonzero residual becomes a field value,
    a Fraction when real, else a GaussianRational, and no Fraction view of
    the stencil is built.  Each call folds its point afresh.  A family
    member's residuals are read from its samples on a grid instead
    (:class:`StencilGrid`), to the same values; this is the route for
    other functions, and the tests' per-point reference.
    """
    point = tuple(point)
    return _dot(*join_eigenvalue(equation.eigenvalue(label), *equation.fold(point), point), f)


class StencilGrid:
    """An equation's residuals on one family's members, each label's member
    sampled once, in integers, on the tensor grid its points' stencils
    weigh.

    Per variable the axis holds every coordinate a folded stencil weighs,
    the points' own coordinates among them, each at the position where it
    was first met.  A sweep's label grids are prefixes of one another, so
    the axes only grow, and the grid folds each point once and keeps its
    stencil read into axis positions: the one place a sweep keeps
    stencils.  A label's member is sampled at every point of the axes'
    tensor grid by one ``family_grid`` call, as Gaussian integers over one
    denominator, and a point's residual is one integer dot product: its
    weights with the eigenvalue joined (:func:`join_eigenvalue`) against
    the samples at their positions.  Only a nonzero residual becomes a
    field value, the value :func:`table_residual_on` gives with the
    member, in value and type.

    A label folds all of its points and samples its whole grid before its
    first residual is read, so a failing label samples points that the
    per-point route never reaches, and a fold that cannot be made raises
    before any of its residuals.  The residuals are read lazily in the
    points' order, and a sample that cannot be taken raises only when a
    residual reads it (``family_grid``'s deferred errors), with the point's
    coordinates as its stencil holds them: the witness is the first failing
    point, with the same value, and an error is the one the per-point route
    meets first, with the same message.
    """

    def __init__(self, equation: Equation, spec: FamilySpec):
        self.equation = equation
        self.spec = spec
        self.axes = [[] for _ in range(spec.nvars)]
        self._positions = [{} for _ in range(spec.nvars)]
        self._stencils = {}

    def residuals(self, label, points):
        """(point, residual) at each of the points, in their order, read
        lazily: a caller that stops at a failing point reads no further."""
        stencils = [(point, self._stencil(point)) for point in points]
        ((den, samples),) = family_grid(self.spec, [label], self.axes, deferred=True)
        lam = self.equation.eigenvalue(label)
        strides = [1] * len(self.axes)
        for var in range(len(self.axes) - 1, 0, -1):
            strides[var - 1] = strides[var] * len(self.axes[var])
        for point, (sden, weights, own) in stencils:
            jden, joined = join_eigenvalue(lam, sden, weights, own)
            re = im = 0
            for at, (a, b) in joined.items():
                if a or b:
                    sample = samples[sum(map(mul, at, strides))]
                    if sample.__class__ is not tuple:
                        sample(self._key(point, at))
                    c, d = sample
                    re += a * c - b * d
                    im += a * d + b * c
            yield point, (from_parts(jden * den, re, im) if re or im else ZERO)

    def _stencil(self, point):
        """(den, {positions: (A, B)}, own positions): the point's stencil
        with each neighbour at its axis positions."""
        entry = self._stencils.get(point)
        if entry is None:
            den, weights = self.equation.fold(point)
            entry = self._stencils[point] = (
                den, {self._place(q): w for q, w in weights.items()}, self._place(point)
            )
        return entry

    def _place(self, q):
        out = []
        for positions, axis, c in zip(self._positions, self.axes, q):
            at = positions.get(c)
            if at is None:
                at = positions[c] = len(axis)
                axis.append(c)
            out.append(at)
        return tuple(out)

    def _key(self, point, at):
        """The neighbour at the positions ``at`` as the point's stencil keys
        it, or the point itself: the coordinates a sample error names.  Only
        an error reads it, so it folds the point again."""
        return next((q for q in self.equation.fold(point)[1] if self._place(q) == at), point)


def residual(equation: Equation, spec: FamilySpec, label, point):
    """lambda P(point) + (L P)(point) for the family member P; exactly 0 on
    family members.  For a coefficient table L is sum f_i E_i.  The
    one-point grid of :class:`StencilGrid`, so each call folds its point
    afresh."""
    label = check_label(spec, label)
    point = check_point(spec, point)
    ((_, value),) = StencilGrid(equation, spec).residuals(label, [point])
    return value


def derivative_function(spec: FamilySpec, label, direction):
    """The difference derivative of the family member, as a stencil function."""
    variables = DIRECTIONS.get(direction)
    if variables is None:
        raise ValueError(f"unknown direction {direction!r}")
    f = family_function(spec, label)
    lattices = spec.lattices()
    for var in variables:
        f = lambda pt, g=f, var=var: partial_D(lattices[var], g, pt, var)
    return f


# ---------------------------------------------------------------------------
# second-order equations
# ---------------------------------------------------------------------------

def _racah_x(p, x, y):
    b0, b1, b2 = p["beta0"], p["beta1"], p["beta2"]
    phi = -x * x + x * y + (b0 * b2 - b1 * (b2 + b0) / 2) * x + b1 * (b1 - b0) / 2 * y
    return phi, (b0 - b2) * x + (b1 - b0) * y


def _wilson_x(p, x, y):
    a, b, e2 = p["a"], p["b"], p["e2"]
    phi = (
        x * x - x * y + (-2 * a * e2 - b * a - 2 * b * e2 - e2 * e2) * x
        + a * b * y + a * b * e2 * e2
    )
    tau = (a + 2 * e2 + b) * x - (a + b) * y - (2 * b * a * e2 + b * e2 * e2 + a * e2 * e2)
    return phi, tau


def _wilson_bar_y(p, x, y):
    c, d, e2 = p["c"], p["d"], p["e2"]
    phi = (
        -x * y + y * y + c * d * x + (-2 * c * e2 - d * c - 2 * d * e2 - e2 * e2) * y
        + c * d * e2 * e2
    )
    tau = (-c - d) * x + (c + 2 * e2 + d) * y - (d * e2 * e2 + 2 * d * c * e2 + c * e2 * e2)
    return phi, tau


def _cdh_x(p, x, y):
    a, e2 = p["a"], p["e2"]
    phi = (-a - 2 * e2) * x + a * y + a * e2 * e2
    return phi, x - y - (2 * a * e2 + e2 * e2)


# kind -> (family, variable, (params, x, y) -> (phi, tau), (params, n) -> lambda)
# of the printed lambda P + phi D^2 P + tau S D P = 0 in one variable: phi and
# tau in the lattice variables x, y, and n the label's entry in that variable
SECOND_ORDER_FORMS = {
    "racah-x": (RACAH, 0, _racah_x, lambda p, n: n * (p["beta2"] - p["beta0"] + n - 1)),
    "wilson-x": (WILSON, 0, _wilson_x, lambda p, n: -n * (n - 1 + p["a"] + p["b"] + 2 * p["e2"])),
    "wilson-bar-y": (
        WILSON_BAR, 1, _wilson_bar_y, lambda p, n: -n * (n - 1 + p["c"] + p["d"] + 2 * p["e2"])
    ),
    "cdh-x": (CDH, 0, _cdh_x, lambda p, n: Fraction(-n)),
}


def second_order_equation(kind, spec: FamilySpec) -> CoeffTable:
    """The printed second-order equation ``kind``: a table with phi beside
    D^2 and tau beside SD of the form's variable, every other f_i zero."""
    if kind not in SECOND_ORDER_FORMS:
        raise ValueError(f"unknown second-order kind {kind!r}")
    family, var, form, eigenvalue = SECOND_ORDER_FORMS[kind]
    if spec.family != family:
        raise ValueError(f"{kind} applies to the {family} family")
    d2, sd = (tuple(l if i == var else 0 for i in range(2)) for l in (2, 1))
    slots = dict(zip((d2, sd), form(spec.params, *_xy())))
    coeffs = [slots.get(lind, MPoly.zero(2)) for lind in BIVARIATE_OPS]
    return CoeffTable(coeffs, lambda lbl: eigenvalue(spec.params, lbl[var]), spec.lattices())


def second_order_residual(kind, spec: FamilySpec, label, point):
    """LHS of the printed second-order equation."""
    return residual(second_order_equation(kind, spec), spec, label, point)


# ---------------------------------------------------------------------------
# difference (stencil) forms
# ---------------------------------------------------------------------------

def racah_gi_stencil(params, s, t):
    """The bivariate Racah nine-term form, less its eigenvalue (identity
    parts folded into (0,0)), as the integer stencil
    ``(den, {offset: (A, 0)})``: the offset's weight is A / den.

    Each printed term t_k is a product of linear factors over one of the
    s-denominators (b1 + 2s)(b1 + 2s + 1), (b1 + 2s - 1)(b1 + 2s + 1),
    (b1 + 2s - 1)(b1 + 2s) times one of the like t-denominators in b2 + 2t.
    Multiplied through by the factor each one misses, every term is a
    numerator over the one denominator

        (b1 + 2s - 1)(b1 + 2s)(b1 + 2s + 1)(b2 + 2t - 1)(b2 + 2t)(b2 + 2t + 1),

    checked once for zero.  With s, t and the parameters written as integers
    over one common denominator d, every numerator is an integer of degree
    8 over d^8 and the denominator one of degree 6 over d^6: A is the
    numerator's integer and den the denominator's times d^2.
    """
    b0, b1, b2, b3, N = (params[k] for k in ("beta0", "beta1", "beta2", "beta3", "N"))
    d, parts = integer_parts((s, t, b0, b1, b2, b3, N))
    S, T, B0, B1, B2, B3, NN = (a for a, _ in parts)
    sm, s0, sp = B1 + 2 * S - d, B1 + 2 * S, B1 + 2 * S + d
    tm, t0, tp = B2 + 2 * T - d, B2 + 2 * T, B2 + 2 * T + d
    den = sm * s0 * sp * tm * t0 * tp * d * d
    if not den:
        raise SingularPointError(f"nine-term denominator vanishes at ({s}, {t})")
    # the quadratic factors (b2 + 1)(b3 - 1) + 2N(b3 + N) + 2t(b2 + t) and
    # (b0 + 1)(b1 - 1) + 2s(b1 + s)
    qt = (B2 + d) * (B3 - d) + 2 * NN * (B3 + NN) + 2 * T * (B2 + T)
    qs = (B0 + d) * (B1 - d) + 2 * S * (B1 + S)
    # the groups (R(shifted) - I) enter as printed, the groups
    # (I - R(shifted)) with their sign reversed; each term leaves its
    # negative at (0, 0)
    c = {
        (1, 1): (NN - T) * (B1 + S) * (B1 - B0 + S) * (B3 + NN + T)
        * (B2 + S + T) * (B2 + S + T + d) * sm * tm,
        (1, 0): (B1 + S) * (B1 - B0 + S) * (T - S) * (B2 + S + T) * qt * sm * t0,
        (0, 1): (NN - T) * (B3 + NN + T) * (B2 + S + T) * (B2 - B1 - S + T) * qs * s0 * tm,
        (-1, 1): S * (NN - T) * (B0 + S) * (B3 + NN + T)
        * (B1 - B2 + S - T - d) * (B1 - B2 + S - T) * sp * tm,
        (1, -1): -(B1 + S) * (B1 - B0 + S) * (S - T) * (S - T + d)
        * (B2 + NN + T) * (B2 - B3 - NN + T) * sm * tp,
        (-1, -1): -S * (B0 + S) * (B2 + NN + T) * (B2 - B3 - NN + T)
        * (B1 + S + T - d) * (B1 + S + T) * sp * tp,
        (-1, 0): -S * (B0 + S) * qt * (B1 + S + T) * (B1 - B2 + S - T) * sp * t0,
        (0, -1): qs * (S - T) * (B2 + NN + T) * (B2 - B3 - NN + T) * (B1 + S + T) * s0 * tp,
    }
    c[(0, 0)] = -sum(c.values())
    return den, {offset: (n, 0) for offset, n in c.items()}


def racah_gi_eigenvalue(params, label):
    """|l| (beta3 - beta0 + |l| - 1), printed with the Racah nine-term form;
    apart from the Theorem table's, so the recovery oracle never reads it."""
    k = sum(label)
    return k * (params["beta3"] - params["beta0"] + k - 1)


def _form_values(table: CoeffTable, x, y):
    """(d, [(X, 0), (Y, 0), f1, .., f8]): the point and the table's f_i at
    it as Gaussian integers (A, B) over one common denominator d."""
    values = [fi.eval(table.lattice_point((x, y))) for fi in table.coeffs]
    return integer_parts((x, y, *values))


def wilson_f_stencil(table: CoeffTable, x, y):
    """The printed Wilson difference equation, without its eigenvalue,
    built from the Wilson table's f_i, as the integer stencil
    ``(den, {offset: (A, B)})``: the offset's weight is (A + Bi) / den.

    Each printed F_k, multiplied through by the factors 2x -+ i, 2y -+ i
    its denominator misses, is a numerator over the one denominator
    4xy(4x^2 + 1)(4y^2 + 1), checked once for zero.  With x, y and the f_i
    as Gaussian integers over one common denominator d, each numerator is
    of degree 6 in them once its lower-degree parts carry powers of d, as
    the denominator is: den is 4XY(4X^2 + d^2)(4Y^2 + d^2), negative where
    xy is, and (A, B) the numerator.
    """
    d, ((X, _), (Y, _), f1, f2, f3, f4, f5, f6, f7, f8) = _form_values(table, x, y)
    d2 = d * d
    qx, qy = 4 * X * X + d2, 4 * Y * Y + d2
    den = 4 * X * Y * qx * qy
    if not den:
        raise SingularPointError("Wilson difference form needs x, y nonzero")
    c = {}
    for o1, o2 in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
        # F = (f1 - o1 o2 xy f4 + i (o1 x f2 + o2 y f3)) / (4xy (2x + o1 i)(2y + o2 i))
        group = gdot([
            ((d2, 0), f1), ((-o1 * o2 * X * Y, 0), f4),
            ((0, o1 * d * X), f2), ((0, o2 * d * Y), f3),
        ])
        c[(o1, o2)] = gmul([(2 * X * d, -o1 * d2), (2 * Y, -o2 * d), group])
    # F = i (i a -+ x b) / (2x (2x +- i)(4y^2 + 1)) at (+-1, 0), with
    # a = 2 f1 + f3 + f5 (4y^2 + 1) and b = 2 f2 + f4 + f7 (4y^2 + 1); at
    # (0, +-1) the same with x, f2, f5, f7 and y, f3, f6, f8 swapped
    ax = gdot([((2 * d2, 0), f1), ((d2, 0), f3), ((qy, 0), f5)])
    bx = gdot([((2 * d2, 0), f2), ((d2, 0), f4), ((qy, 0), f7)])
    ay = gdot([((2 * d2, 0), f1), ((d2, 0), f2), ((qx, 0), f6)])
    by = gdot([((2 * d2, 0), f3), ((d2, 0), f4), ((qx, 0), f8)])
    for o in (1, -1):
        px = gdot([((0, d), ax), ((-o * X, 0), bx)])
        py = gdot([((0, d), ay), ((-o * Y, 0), by)])
        c[(o, 0)] = gmul([(0, 2 * Y), (2 * X, -o * d), px])
        c[(0, o)] = gmul([(0, 2 * X), (2 * Y, -o * d), py])
    # F = (4 f1 + f4 + 2 f2 + 2 f3 + (f8 + 2 f6)(4x^2 + 1) + (f7 + 2 f5)(4y^2 + 1))
    #     / ((4x^2 + 1)(4y^2 + 1))
    centre = gdot([
        ((4 * d2, 0), f1), ((d2, 0), f4), ((2 * d2, 0), f2), ((2 * d2, 0), f3),
        ((qx, 0), f8), ((2 * qx, 0), f6), ((qy, 0), f7), ((2 * qy, 0), f5),
    ])
    c[(0, 0)] = gmul([(4 * d * X * Y, 0), centre])
    return den, c


def ch_f_stencil(table: CoeffTable, x, y):
    """The printed continuous Hahn difference form, without its eigenvalue,
    built from the continuous Hahn table's f_i, as the integer stencil
    ``(den, {offset: (A, B)})``: the offset's weight is (A + Bi) / den.

    Multiplied by 4, every printed weight is a Gaussian-integer combination
    of the f_i, written over their common denominator d: (A, B) is that
    numerator and den is 4d.
    """
    d, (_, _, f1, f2, f3, f4, f5, f6, f7, f8) = _form_values(table, x, y)
    c = {}
    for o1, o2 in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
        # f1 + (o1 f2 + o2 f3) i / 2 - o1 o2 f4 / 4
        c[(o1, o2)] = gdot([
            ((4, 0), f1), ((0, 2 * o1), f2), ((0, 2 * o2), f3), ((-o1 * o2, 0), f4)
        ])
    for o in (1, -1):
        # -2 f1 - f5 - o (f2 + f7 / 2) i at (o, 0), and in f6, f3, f8 at (0, o)
        c[(o, 0)] = gdot([((-8, 0), f1), ((-4, 0), f5), ((0, -4 * o), f2), ((0, -2 * o), f7)])
        c[(0, o)] = gdot([((-8, 0), f1), ((-4, 0), f6), ((0, -4 * o), f3), ((0, -2 * o), f8)])
    c[(0, 0)] = gdot([((16, 0), f1), ((8, 0), f6), ((8, 0), f5)])
    return 4 * d, c


# base family -> kind of its printed nine-term form; a second family shares it
DIFFERENCE_FORMS = {RACAH: "racah-gi", WILSON: "wilson-f", CH: "ch-f"}


def difference_form_equation(kind, spec: FamilySpec) -> Equation:
    """The printed nine-term form ``kind``; the Wilson and continuous Hahn
    forms read the printed table's f_i and eigenvalue.  Its fold is the
    builder's integer stencil over the form's stated denominator, each
    offset mapped to its neighbour and zero weights dropped."""
    if kind not in DIFFERENCE_FORMS.values():
        raise ValueError(f"unknown difference form {kind!r}")
    if DIFFERENCE_FORMS.get(base_family(spec.family)) != kind:
        raise ValueError(f"{kind} does not apply to the {spec.family} family")
    if kind == "racah-gi":
        p = spec.params
        build, step = partial(racah_gi_stencil, p), ONE
        eigenvalue = partial(racah_gi_eigenvalue, p)
    else:
        table = coefficients(spec)
        builder = wilson_f_stencil if kind == "wilson-f" else ch_f_stencil
        build, step, eigenvalue = partial(builder, table), II, table.eigenvalue

    def fold(pt):
        den, weights = build(*pt)
        # each coordinate's three neighbours, shared by the nine offsets
        coords = pt if step is ONE else map(gauss, pt)
        xs, ys = ({o: v + step * o for o in (-1, 0, 1)} for v in coords)
        return den, {(xs[o1], ys[o2]): w for (o1, o2), w in weights.items() if w[0] or w[1]}

    return Equation(fold, eigenvalue)


def difference_form_residual(kind, spec: FamilySpec, label, point):
    """The nine-term stencil sum at the point; exactly 0 on family members."""
    return residual(difference_form_equation(kind, spec), spec, label, point)


# ---------------------------------------------------------------------------
# coefficient recovery (the proof-route oracle)
# ---------------------------------------------------------------------------

OP_ORDER_WITH_IDENTITY = BIVARIATE_OPS + ((0, 0),)


def _axis_inverse(lattice, s):
    """(M^T)^-1 for the 3 x 3 matrix M of one variable at the coordinate s:
    row l holds the identity (l = 0), S D (l = 1) and D^2 (l = 2) at the
    offsets -1, 0, 1, the weights :func:`_axis_entry` gives.  Raises
    ValueError when M is singular."""
    rows = [[ZERO, ONE, ZERO]]
    for l in (1, 2):
        den, weights, _ = _axis_entry(lattice, s, l)
        rows.append([from_parts(den, *weights.get(o, (0, 0))) for o in (-1, 0, 1)])
    return exact_inverse(ExactMatrix(rows).transpose())


def recover_coefficients(params):
    """Re-derive the Racah coefficient table from the nine-term difference
    equation by expressing the shifted values through the mixed-operator
    expressions and interpolating the resulting polynomial coefficients.

    At each node the coefficients g of the nine operators E_(l1, l2), the
    identity among them, solve M^T g = c, with c the form's nine weights
    (the Fraction view of its integer stencil) and M[(l1, l2), (o1, o2)]
    the weight of E_(l1, l2) at the offset (o1, o2).  Every operator
    denominator depends on its own coordinate only, so that weight is
    M_x[l1, o1] M_y[l2, o2], the product of the one-variable weights (as
    :func:`fold_terms` builds every E_l):
    M = M_x (x) M_y exactly, and with G[l1, l2] = g and C[o1, o2] = c the
    system reads C = M_x^T G M_y, so G = (M_x^T)^-1 C ((M_y^T)^-1)^T.  The
    solution is that of the 9 x 9 system, unique when M is invertible,
    which is when both M_v are.  Each axis inverse (M_v^T)^-1 is built
    once per (variable, coordinate) and shared by the nodes on it.

    Returns (table, eigenvalue_constant).  The recovered table is the
    typo-arbitration oracle for the printed Theorem coefficients.
    """
    spec = FamilySpec(RACAH, params=params)
    lattices = spec.lattices()
    lam = partial(racah_gi_eigenvalue, spec.params)
    inverses = {}

    def axis_inverse(var, s):
        inverse = inverses.get((var, s))
        if inverse is None:
            inverse = inverses[(var, s)] = _axis_inverse(lattices[var], s)
        return inverse

    def sample(point):
        gi = fraction_view(racah_gi_stencil(spec.params, *point))
        # the form at label (1, 1): the identity row recovers its eigenvalue
        gi[(0, 0)] += lam((1, 1))
        c = ExactMatrix([[gi[(o1, o2)] for o2 in (-1, 0, 1)] for o1 in (-1, 0, 1)])
        ax, ay = (axis_inverse(var, s) for var, s in enumerate(point))
        g = ax * c * ay.transpose()
        return [g[lind] for lind in OP_ORDER_WITH_IDENTITY]

    # the coefficients have total degree <= 4 (CoeffTable checks it), so 6
    # nodes per axis interpolate them with one node to spare
    polys = interpolate_on_grid(lattices, 6, sample)
    lam_poly = polys[8]
    if lam_poly.total_degree() > 0:
        raise AssertionError("recovered eigenvalue term is not constant")
    eig = lam_poly.coeff((0, 0))
    table = CoeffTable(polys[:8], lam, lattices)
    return table, eig


def compare_tables(table_a: CoeffTable, table_b: CoeffTable):
    """Coefficient-by-coefficient diff; empty when the tables agree."""
    diffs = []
    for i, (fa, fb) in enumerate(zip(table_a.coeffs, table_b.coeffs)):
        delta = fa - fb
        if not delta.is_zero():
            diffs.append((f"f{i + 1}", delta))
    return diffs


# ---------------------------------------------------------------------------
# verification sweeps
# ---------------------------------------------------------------------------

def residual_grid(spec: FamilySpec, label, size=None, offset=Fraction(1, 7)):
    """Axes of a tensor grid of nonsingular points, ``size`` lattice values
    per axis; by default |label| + 5, four more than the table residual's
    degree bound (see :func:`check_proof_grid`) asks for."""
    size = size if size is not None else sum(check_label(spec, label)) + 5
    return grid_axes(spec.lattices(), size, offset)


def sweep(spec: FamilySpec, max_total_degree, values):
    """Walk every label of total degree <= the bound, in (degree, label)
    order, over ``values(label)``, the label's (point, value) pairs in sweep
    order, until a value is nonzero.

    Yields (label, points checked, witness), where the witness is the first
    (point, nonzero value), or None when every point checked zero.
    """
    for label in (l for n in range(max_total_degree + 1) for l in reversed(graded(n, spec.nvars))):
        checked = 0
        witness = None
        for point, value in values(label):
            checked += 1
            if value:
                witness = (point, value)
                break
        yield label, checked, witness


def label_record(label, witness):
    """The report record of one swept label: whether it passed and, if not,
    the witness point and value."""
    record = {"label": list(label), "pass": witness is None}
    if witness is not None:
        record["point"] = [field_str(v) for v in witness[0]]
        record["value"] = field_str(witness[1])
    return record


def check_proof_grid(max_total_degree, grid_size):
    """Refuse an explicit grid size that proves nothing at the degree bound.

    In a coefficient table, a printed second-order equation among them, each
    coefficient has degree at most the order of the operator it multiplies:
    deg f_i <= |l_i| (``CoeffTable`` checks it), so deg phi <= 2 beside D^2
    and deg tau <= 1 beside SD.  E_l lowers the degree by |l|, so the residual
    on a member P of total degree k has total degree <= k in the lattice
    variables.  It is therefore zero once it vanishes on a tensor grid of
    k + 1 distinct lattice values per axis, and a smaller grid proves nothing.
    """
    if grid_size is not None and grid_size <= max_total_degree:
        raise ValueError(
            f"grid size {grid_size} is no proof at total degree {max_total_degree}:"
            f" a residual of total degree k needs k + 1 lattice values per axis"
        )


def equation_sweep(
    equation: Equation, spec: FamilySpec, max_total_degree, grid_size=None, offset=Fraction(1, 7)
):
    """:func:`sweep` of the equation's residuals on the spec's members, each
    label over its :func:`residual_grid`.  One :class:`StencilGrid` serves
    the whole sweep: each label's grid is a prefix of the next one's, so
    every point is folded once and each label's member sampled once, and a
    failing label samples its whole grid before its first point is read.
    The grid size is the caller's to check (:func:`check_proof_grid`)."""
    grid = StencilGrid(equation, spec)
    grids = lambda label: product(*residual_grid(spec, label, size=grid_size, offset=offset))
    return sweep(spec, max_total_degree, lambda label: grid.residuals(label, grids(label)))


def verify_table(spec: FamilySpec, max_total_degree, grid_size=None):
    """Residual sweep over all labels with total degree <= the bound.

    Returns a list of {label, points, pass} reports; residuals are exact
    zeros or the sweep reports failure with a witness.  The residual
    f_i E_i P + lambda P of a member P obeys the degree bound of
    :func:`check_proof_grid`.  The sweep is :func:`equation_sweep`'s over
    the printed table.
    """
    check_proof_grid(max_total_degree, grid_size)
    return [
        {**label_record(label, witness), "points": checked}
        for label, checked, witness in equation_sweep(
            coefficients(spec), spec, max_total_degree, grid_size
        )
    ]
