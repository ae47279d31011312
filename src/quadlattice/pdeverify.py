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
polynomial identity (see :func:`check_proof_grid`).

The table annihilating a difference derivative of the solutions follows
from the base table by one rule over the operator indices, taken once per
differentiated variable (see :func:`derived_coefficients`).
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from itertools import product
from math import lcm

from .exactfield import GaussianRational, field_str, from_parts, gauss, integer_parts
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
)
from .fbasis import MPoly, interpolate_on_grid, poly_shift_pair
from .latticeops import (
    SingularPointError,
    grid_axes,
    half_step,
    lattice_value,
    partial_D,
    shifted_points,
)
from .matrix import ExactMatrix, solve_stacked

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


class Equation:
    """A printed equation lambda(label) P + (L P)(point) = 0 with a
    label-free operator L.

    ``stencil(point)`` is L at the point as one integer stencil
    ``(den, {q: (A, B)})``: the neighbour q weighs (A + Bi) / den.  A zero
    weight is not kept, so no residual samples its neighbour.  Each point
    is folded once per equation.  ``fold(point)`` builds the stencil: here
    it writes the weights {q: w} that ``weights(point)`` builds by hand (the
    nine-term forms) over one denominator, with ``exactfield.integer_parts``;
    a :class:`CoeffTable` contracts its operators in integers instead.  No
    residual reads field weights: the Fraction view (:func:`fraction_view`)
    is built only by :func:`stencil_weights` and the recovery's
    :func:`operator_to_shift_matrix`.
    """

    __slots__ = ("weights", "eigenvalue", "_stencils")

    def __init__(self, weights, eigenvalue):
        self.weights = weights
        self.eigenvalue = eigenvalue
        self._stencils = {}

    def stencil(self, point):
        stencil = self._stencils.get(point)
        if stencil is None:
            stencil = self._stencils[point] = self.fold(point)
        return stencil

    def fold(self, point):
        weights = self.weights(point)
        den, parts = integer_parts(weights.values())
        return den, {q: w for q, w in zip(weights, parts) if w[0] or w[1]}


class CoeffTable(Equation):
    """The printed coefficients f_1..f_k and the eigenvalue closure of one
    divided-difference equation, on its family's lattices.  The operator
    list follows from the number of variables, the order from the top
    operator whose coefficient is nonzero.
    The coefficients are a tuple, so a folded stencil cannot go stale.

    The one-variable S D and D^2 weights depend only on (variable,
    coordinate, entry), not on the point: the table builds each such axis
    entry once, when an operator with a nonzero coefficient first asks for
    it, and keeps it beside its stencils for every point that shares the
    coordinate.
    """

    __slots__ = ("coeffs", "lattices", "_entries")

    def __init__(self, coeffs, eigenvalue, lattices):
        self.coeffs = tuple(coeffs)
        self.lattices = tuple(lattices)
        if len(self.coeffs) != len(self.lindices):
            raise ValueError(
                f"{self.nvars} variables take {len(self.lindices)} coefficients,"
                f" not {len(self.coeffs)}"
            )
        self._check_structure()
        # the operators contract in integers: no weights are built by hand
        super().__init__(None, eigenvalue)
        self._entries = {}

    def fold(self, point):
        """sum f_i E_i at the point as an integer stencil; a zero f_i skips
        its operator, singular or not."""
        latpt = self.lattice_point(point)
        terms = [
            (ci, lind) for fi, lind in zip(self.coeffs, self.lindices) if (ci := fi.eval(latpt))
        ]
        return PointStencils(self.lattices, point, self._entries).fold(terms)

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


class PointStencils:
    """The pointwise operator engine at one point.

    Every operator denominator depends on its own coordinate only, so E_l is
    the tensor product of one-variable weights (:func:`_axis_entry`), built
    once per (variable, coordinate, entry) in ``entries`` (a table passes
    its own, so they outlive the point) and shared by every operator asked
    for.  A linear combination of operators is contracted one variable at a
    time, in Gaussian integers: the coefficients over one common
    denominator, each variable's entries over theirs.  The result is one
    integer stencil ``(den, {q: (A, B)})``, q weighing (A + Bi) / den, with
    zero weights dropped, so no residual samples their neighbours; callers
    that need field weights take its :func:`fraction_view`.
    """

    __slots__ = ("lattices", "point", "_entries")

    def __init__(self, lattices, point, entries=None):
        self.lattices = tuple(lattices)
        self.point = tuple(point)
        self._entries = {} if entries is None else entries

    def _factor(self, var, l):
        key = (var, self.point[var], l)
        entry = self._entries.get(key)
        if entry is None:
            entry = self._entries[key] = _axis_entry(self.lattices[var], self.point[var], l)
        return entry

    def fold(self, terms):
        """The integer stencil ``(den, {q: (A, B)})`` with sum w f(q) = sum of
        c (E_lindex f)(point) over the (c, lindex) in terms: one weight per
        neighbour q, zero weights dropped."""
        nvars = len(self.point)
        # denominators are met as nested application meets them: operator by
        # operator, last variable first
        entries = [{} for _ in range(nvars)]
        for _, lindex in terms:
            for var in range(nvars - 1, -1, -1):
                l = lindex[var]
                if l and l not in entries[var]:
                    entries[var][l] = self._factor(var, l)
        # each variable's neighbour coordinates, by offset
        coords = [next(iter(e.values()))[2] if e else {0: s} for e, s in zip(entries, self.point)]
        den, parts = integer_parts([c for c, _ in terms])
        # contract the last variable first, so that terms agreeing on the
        # earlier entries share one weight table over the later offsets
        layer = {}
        for (a, b), (_, lindex) in zip(parts, terms):
            tail = layer.setdefault(lindex, {})
            ta, tb = tail.get((), (0, 0))
            tail[()] = (ta + a, tb + b)
        for var in range(nvars - 1, -1, -1):
            # this variable's entries over one denominator; entry 0 weighs 1
            scale = lcm(*(d for d, _, _ in entries[var].values()))
            factors = {
                l: {o: (a * (scale // d), b * (scale // d)) for o, (a, b) in w.items()}
                for l, (d, w, _) in entries[var].items()
            }
            factors[0] = {0: (scale, 0)}
            den *= scale
            merged = {}
            for lindex, tail in layer.items():
                acc = merged.setdefault(lindex[:var], {})
                for o, (wa, wb) in factors[lindex[var]].items():
                    for q, (ta, tb) in tail.items():
                        q = (o,) + q
                        a, b = wa * ta - wb * tb, wa * tb + wb * ta
                        if q in acc:
                            xa, xb = acc[q]
                            acc[q] = (xa + a, xb + b)
                        else:
                            acc[q] = (a, b)
            layer = merged
        return den, {
            tuple(c[o] for c, o in zip(coords, q)): w
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
    return fraction_view(PointStencils(lattices, point).fold([(ONE, lindex)]))


def apply_mixed(lattices, lindex, f, point):
    """(E_{lindex} f)(point): per variable, entry 1 applies S D and entry 2
    applies D^2; entry 0 leaves the variable alone.  A view on the engine
    kept for the tests and for the benchmark's spans."""
    lindex = validate_mixed_index(lindex, len(lattices))
    return _dot(*PointStencils(lattices, point).fold([(ONE, lindex)]), f)


# ---------------------------------------------------------------------------
# symbolic table action
# ---------------------------------------------------------------------------

def table_action(table: CoeffTable, p: MPoly) -> MPoly:
    """(sum f_i E_i) p as a polynomial in the lattice variables: the symbolic
    counterpart of :meth:`PointStencils.fold`.

    One variable at a time, every image E_l p is kept under its index prefix
    l; each intermediate q is split once for D q and once more for
    (S D q, D^2 q).
    """
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

def table_residual_on(equation: Equation, f, label, point):
    """lambda(label) f(point) + sum w f(q) over the equation's integer
    stencil ``(den, {q: (A, B)})`` at the point: the shape of every printed
    equation.

    With lambda = a / b in integers, every weight is multiplied by b and
    a den joins the point's own weight, so f is sampled once per neighbour
    of nonzero weight; the sum is one integer dot product with the samples
    over their common denominator; a zero weight (the point's own, when
    lambda cancels it) samples nothing.  The residual is zero exactly when
    both integer parts are; only a nonzero residual becomes a field value,
    a Fraction when real, else a GaussianRational, and no Fraction view of
    the stencil is built.  The joined weights are a new dict: the stencil
    the equation keeps stays as it is.
    """
    point = tuple(point)
    den, weights = equation.stencil(point)
    lam_den, ((la, lb),) = integer_parts((equation.eigenvalue(label),))
    joined = {q: (a * lam_den, b * lam_den) for q, (a, b) in weights.items()}
    a, b = joined.get(point, (0, 0))
    joined[point] = (a + la * den, b + lb * den)
    return _dot(den * lam_den, joined, f)


def residual(equation: Equation, spec: FamilySpec, label, point):
    """lambda P(point) + (L P)(point) for the family member P; exactly 0 on
    family members.  For a coefficient table L is sum f_i E_i."""
    label = check_label(spec, label)
    point = check_point(spec, point)
    return table_residual_on(equation, family_function(spec, label), label, point)


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
    """Offset -> rational coefficient of the bivariate Racah nine-term form,
    less its eigenvalue (identity parts folded into (0,0))."""
    b0, b1, b2, b3, N = (params[k] for k in ("beta0", "beta1", "beta2", "beta3", "N"))
    den_s0 = (b1 + 2 * s) * (b1 + 2 * s + 1)
    den_s1 = (b1 + 2 * s - 1) * (b1 + 2 * s + 1)
    den_s2 = (b1 + 2 * s - 1) * (b1 + 2 * s)
    den_t0 = (b2 + 2 * t) * (b2 + 2 * t + 1)
    den_t1 = (b2 + 2 * t - 1) * (b2 + 2 * t + 1)
    den_t2 = (b2 + 2 * t - 1) * (b2 + 2 * t)
    for d in (den_s0, den_s1, den_s2, den_t0, den_t1, den_t2):
        if not d:
            raise SingularPointError(f"nine-term denominator vanishes at ({s}, {t})")

    c = {}

    def put(offset, value, reversed_sign):
        # reversed_sign: the printed group is (I - R(shifted)) instead of
        # (R(shifted) - I)
        sign = -1 if reversed_sign else 1
        c[offset] = c.get(offset, 0) + sign * value
        c[(0, 0)] = c.get((0, 0), 0) - sign * value

    t1 = (
        (N - t) * (b1 + s) * (-b0 + b1 + s) * (b3 + N + t)
        * (b2 + s + t) * (b2 + s + t + 1)
    ) / (den_s0 * den_t0)
    put((1, 1), t1, False)

    t2 = (
        (b1 + s) * (-b0 + b1 + s) * (t - s) * (b2 + s + t)
        * ((b2 + 1) * (b3 - 1) + 2 * N * (b3 + N) + 2 * t * (b2 + t))
    ) / (den_s0 * den_t1)
    put((1, 0), t2, False)

    t3 = (
        (N - t) * (b3 + N + t) * (b2 + s + t) * (-b1 + b2 - s + t)
        * ((b0 + 1) * (b1 - 1) + 2 * s * (b1 + s))
    ) / (den_s1 * den_t0)
    put((0, 1), t3, False)

    t4 = -(
        s * (N - t) * (b0 + s) * (b3 + N + t)
        * (b1 - b2 + s - t - 1) * (b1 - b2 + s - t)
    ) / (den_s2 * den_t0)
    put((-1, 1), t4, True)

    t5 = (
        (b1 + s) * (b1 - b0 + s) * (s - t) * (s - t + 1)
        * (b2 + N + t) * (b2 - b3 - N + t)
    ) / (den_s0 * den_t2)
    put((1, -1), t5, True)

    t6 = (
        s * (b0 + s) * (b2 + N + t) * (b2 - b3 - N + t)
        * (b1 + s + t - 1) * (b1 + s + t)
    ) / (den_s2 * den_t2)
    put((-1, -1), t6, True)

    t7 = (
        s * (b0 + s)
        * ((b2 + 1) * (b3 - 1) + 2 * N * N + 2 * b3 * N + 2 * t * t + 2 * b2 * t)
        * (b1 + s + t) * (b1 - b2 + s - t)
    ) / (den_s2 * den_t1)
    put((-1, 0), t7, True)

    t8 = -(
        ((b0 + 1) * (b1 - 1) + 2 * s * s + 2 * b1 * s)
        * (s - t) * (b2 + N + t) * (b2 - b3 - N + t) * (b1 + s + t)
    ) / (den_s1 * den_t2)
    put((0, -1), t8, True)
    return c


def racah_gi_eigenvalue(params, label):
    """|l| (beta3 - beta0 + |l| - 1), printed with the Racah nine-term form;
    apart from the Theorem table's, so the recovery oracle never reads it."""
    k = sum(label)
    return k * (params["beta3"] - params["beta0"] + k - 1)


def wilson_f_stencil(table: CoeffTable, x, y):
    """Offset -> coefficient of the printed Wilson difference equation,
    without its eigenvalue, built from the Wilson table's f_i."""
    if not x or not y:
        raise SingularPointError("Wilson difference form needs x, y nonzero")
    f1, f2, f3, f4, f5, f6, f7, f8 = (
        gauss(fi.eval(table.lattice_point((x, y)))) for fi in table.coeffs
    )
    x = gauss(x)
    y = gauss(y)
    i = II

    F1 = (f1 - x * y * f4 + i * (x * f2 + y * f3)) / (
        4 * x * (2 * x + i) * y * (2 * y + i)
    )
    F2 = -(f1 + x * y * f4 + i * (x * f2 - y * f3)) / (
        4 * x * (2 * x + i) * y * (-2 * y + i)
    )
    F3 = (-f1 - x * y * f4 + i * (x * f2 - y * f3)) / (
        4 * x * (-2 * x + i) * y * (2 * y + i)
    )
    F4 = -(-f1 + i * f2 * x + i * f3 * y + f4 * y * x) / (
        4 * (-2 * y + i) * y * (-2 * x + i) * x
    )
    F5 = (
        -i
        * (
            i * f3 - 2 * f2 * x + 2 * i * f1 - 4 * f7 * x * y * y
            - f7 * x - f4 * x + 4 * i * f5 * y * y + i * f5
        )
        / (2 * (2 * x + i) * x * (2 * y + i) * (-2 * y + i))
    )
    F6 = (
        -i
        * (
            4 * i * f6 * x * x + i * f6 + i * f2 - 4 * f8 * y * x * x
            - f8 * y - f4 * y - 2 * f3 * y + 2 * i * f1
        )
        / (2 * (2 * y + i) * y * (2 * x + i) * (-2 * x + i))
    )
    F7 = (
        i
        * (
            2 * i * f1 + f4 * x + i * f3 + 4 * i * f5 * y * y + i * f5
            + 2 * f2 * x + 4 * f7 * x * y * y + f7 * x
        )
        / (2 * (-2 * x + i) * x * (2 * y + i) * (-2 * y + i))
    )
    F8 = (
        i
        * (
            2 * i * f1 + 4 * i * f6 * x * x + i * f6 + f4 * y
            + i * f2 + 2 * f3 * y + 4 * f8 * y * x * x + f8 * y
        )
        / (2 * (-2 * y + i) * y * (2 * x + i) * (-2 * x + i))
    )
    F9 = (
        4 * f1
        + f8 * (4 * x * x + 1)
        + f7 * (4 * y * y + 1)
        + f6 * (8 * x * x + 2)
        + f4
        + 2 * (f2 + f3)
        + f5 * (8 * y * y + 2)
    ) / ((2 * y + i) * (-2 * y + i) * (2 * x + i) * (-2 * x + i))

    return {
        (1, 1): F1,
        (1, -1): F2,
        (-1, 1): F3,
        (-1, -1): F4,
        (1, 0): F5,
        (0, 1): F6,
        (-1, 0): F7,
        (0, -1): F8,
        (0, 0): F9,
    }


def ch_f_stencil(table: CoeffTable, x, y):
    """Offset -> coefficient of the printed continuous Hahn difference form,
    without its eigenvalue, built from the continuous Hahn table's f_i."""
    f1, f2, f3, f4, f5, f6, f7, f8 = (
        gauss(fi.eval(table.lattice_point((x, y)))) for fi in table.coeffs
    )
    i = II
    half_i = i * HALF
    quarter = Fraction(1, 4)

    return {
        (1, 1): f1 + half_i * (f2 + f3) - quarter * f4,
        (1, -1): f1 + half_i * (f2 - f3) + quarter * f4,
        (-1, 1): f1 - half_i * (f2 - f3) + quarter * f4,
        (-1, -1): f1 - half_i * (f2 + f3) - quarter * f4,
        (1, 0): -2 * f1 - f5 - i * f2 - half_i * f7,
        (0, 1): -2 * f1 - i * f3 - f6 - half_i * f8,
        (-1, 0): -2 * f1 + i * f2 - f5 + half_i * f7,
        (0, -1): i * f3 - 2 * f1 - f6 + half_i * f8,
        (0, 0): 4 * f1 + 2 * f6 + 2 * f5,
    }


# base family -> kind of its printed nine-term form; a second family shares it
DIFFERENCE_FORMS = {RACAH: "racah-gi", WILSON: "wilson-f", CH: "ch-f"}


def difference_form_equation(kind, spec: FamilySpec) -> Equation:
    """The printed nine-term form ``kind``; the Wilson and continuous Hahn
    forms read the printed table's f_i and eigenvalue."""
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

    def weights(pt):
        s, t = pt if step is ONE else map(gauss, pt)
        return {(s + step * o1, t + step * o2): c for (o1, o2), c in build(*pt).items()}

    return Equation(weights, eigenvalue)


def difference_form_residual(kind, spec: FamilySpec, label, point):
    """The nine-term stencil sum at the point; exactly 0 on family members."""
    return residual(difference_form_equation(kind, spec), spec, label, point)


# ---------------------------------------------------------------------------
# coefficient recovery (the proof-route oracle)
# ---------------------------------------------------------------------------

OP_ORDER_WITH_IDENTITY = BIVARIATE_OPS + ((0, 0),)
OFFSETS_3X3 = tuple((o1, o2) for o1 in (-1, 0, 1) for o2 in (-1, 0, 1))


def operator_to_shift_matrix(lattices, point):
    """9 x 9 matrix M with (E_op f)(point) = sum_q M[op, q] f(point + q)."""
    stencils = PointStencils(lattices, point)
    rows = []
    for lind in OP_ORDER_WITH_IDENTITY:
        weights = fraction_view(stencils.fold([(ONE, lind)]))
        row = []
        for off in OFFSETS_3X3:
            q = (point[0] + off[0], point[1] + off[1])
            row.append(weights.get(q, Fraction(0)))
        rows.append(row)
    return ExactMatrix(rows)


def recover_coefficients(params):
    """Re-derive the Racah coefficient table from the nine-term difference
    equation by expressing the shifted values through the mixed-operator
    expressions and interpolating the resulting polynomial coefficients.

    Returns (table, eigenvalue_constant).  The recovered table is the
    typo-arbitration oracle for the printed Theorem coefficients.
    """
    spec = FamilySpec(RACAH, params=params)
    lattices = spec.lattices()
    lam = partial(racah_gi_eigenvalue, spec.params)

    def sample(point):
        gi = racah_gi_stencil(spec.params, *point)
        # the form at label (1, 1): the identity row recovers its eigenvalue
        gi[(0, 0)] += lam((1, 1))
        cvec = [gi.get(off, Fraction(0)) for off in OFFSETS_3X3]
        m = operator_to_shift_matrix(lattices, point)
        # solve g^T M = c  <=>  M^T g = c
        return solve_stacked(m.transpose(), cvec)

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


def sweep(spec: FamilySpec, max_total_degree, points, check):
    """Walk every label of total degree <= the bound, in (degree, label)
    order, over the points ``points(label)`` until ``check(label, point)``
    is nonzero.

    Yields (label, points checked, witness), where the witness is the first
    (point, nonzero value), or None when every point checked zero.
    """
    labels = [
        l
        for l in product(range(max_total_degree + 1), repeat=spec.nvars)
        if sum(l) <= max_total_degree
    ]
    for label in sorted(labels, key=lambda l: (sum(l), l)):
        checked = 0
        witness = None
        for point in points(label):
            value = check(label, point)
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


def verify_table(spec: FamilySpec, max_total_degree, grid_size=None):
    """Residual sweep over all labels with total degree <= the bound.

    Returns a list of {label, points, pass} reports; residuals are exact
    zeros or the sweep reports failure with a witness.  The residual
    f_i E_i P + lambda P of a member P obeys the degree bound of
    :func:`check_proof_grid`.
    """
    check_proof_grid(max_total_degree, grid_size)
    # one table for the sweep: each label's grid is a prefix of the next
    # one's, and the table folds each point once
    table = coefficients(spec)
    return [
        {**label_record(label, witness), "points": checked}
        for label, checked, witness in sweep(
            spec,
            max_total_degree,
            lambda label: product(*residual_grid(spec, label, size=grid_size)),
            lambda label, point: residual(table, spec, label, point),
        )
    ]
