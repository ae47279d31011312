"""Sparse exact polynomials, the monic bases of the lattices, and the
coefficient-space action of the divided-difference operators.

:class:`MPoly` is the one polynomial type: monomial coefficients in the
lattice variables.  The basis F_n attached to a quadratic lattice
x(s) = s(s+beta) satisfies

    F_{n+1}(x) = (x - f_n(beta)) F_n(x),        F_0 = 1,

so F_n is the Newton-style product over the nodes f_k(beta) with

    f_n(beta) = ((2n+1)^2 - 4 beta^2) / 16,     g_n = n(2n-1)/4,

and obeys  D F_n = n F_{n-1},  S F_n = F_n + g_n F_{n-1},
x F_n = F_{n+1} + f_n F_n.  The analogous monic basis for the Wilson
operator pair uses the nodes -f_k(0) (the S and x-multiplication relations
then flip the sign of their second term), and the linear lattice simply uses
powers of x.  The lattice owns its nodes (:meth:`LatticeSpec.node`), so a
basis is named by its lattice, and :func:`u_blocks` reads the top two
monomial blocks of a tensor basis off the elementary symmetric functions of
its nodes.

Linear combinations of polynomials work in Gaussian integers:
:meth:`MPoly.combine_rows` writes a list of polys over one denominator
once, sums each row of coefficients over them as integers and makes each
output coefficient one field value at the end, with the value and type the
left-to-right chain of binary field operations gives.  :meth:`MPoly.combine`
is one row of it, and ``ExactMatrix.apply_rows`` on polynomials all of
its rows.

The exact tensor interpolation works in integers: one inverse Vandermonde
plan per axis (:func:`interpolation_plan`), applied to the samples'
integer numerators over one denominator.  :func:`interpolate_on_grid`
writes field samples that way (:func:`exactfield.integer_parts`);
:func:`interpolate_parts_on_grid` takes them already so, as
``families.family_grid`` gives them, and both end in one integer core.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import lcm, prod
from operator import add, mul, sub

from .exactfield import GaussianRational, demote, field_str, integer_parts
from .latticeops import LatticeSpec, grid_axes, lattice_value, linear, structure_scalars
from .matrix import ExactMatrix


# ---------------------------------------------------------------------------
# sparse exact polynomials
# ---------------------------------------------------------------------------

class MPoly:
    """Sparse polynomial in a fixed number of variables over Q or Q(i),
    ``coeffs`` mapping exponent tuples to nonzero coefficients.  The public
    constructor filters outside input; arithmetic results go through :meth:`_of`."""

    __slots__ = ("nvars", "coeffs")

    def __init__(self, nvars, coeffs=None):
        self.nvars = nvars
        self.coeffs = {}
        if coeffs:
            for exps, c in coeffs.items():
                if c:
                    self.coeffs[tuple(exps)] = c

    @classmethod
    def _of(cls, nvars, coeffs):
        """An MPoly over ``coeffs`` as given: tuple keys, no zero, no other holder."""
        out = cls.__new__(cls)
        out.nvars, out.coeffs = nvars, coeffs
        return out

    @classmethod
    def const(cls, nvars, value):
        return cls(nvars, {(0,) * nvars: value})

    @classmethod
    def zero(cls, nvars):
        return cls(nvars)

    @classmethod
    def var(cls, index, nvars):
        exps = [0] * nvars
        exps[index] = 1
        return cls(nvars, {tuple(exps): Fraction(1)})

    @classmethod
    def combine(cls, coeffs, polys):
        """sum_k coeffs[k] polys[k] (``polys`` nonempty): one row of
        :meth:`combine_rows`."""
        return cls.combine_rows([coeffs], polys)[0]

    @classmethod
    def combine_rows(cls, rows, polys):
        """[sum_k row[k] polys[k] for row in rows] (``polys`` nonempty), in
        Gaussian integers: the polys' coefficients are written over one
        denominator once for all rows, and each row's over its own
        (:func:`exactfield.integer_parts`).  The terms are added in order and
        a sum that reaches zero is dropped, and each output coefficient
        becomes one field value at the end, with the value and type of the
        left-to-right chain of binary * and +: a GaussianRational wherever a
        Gaussian operand entered since the running sum last reached zero
        (even when real), else a Fraction wherever a Fraction did, else an
        int."""
        nvars = polys[0].nvars
        if any(p.nvars != nvars for p in polys):
            raise ValueError("variable count mismatch")
        written = _integer_terms(polys)
        return [cls._of(nvars, _combine_row(row, *written)) for row in rows]

    def is_zero(self):
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        # an MPoly is mutable, so it is unhashable, and it equals only an MPoly
        if isinstance(other, MPoly):
            return self.nvars == other.nvars and self.coeffs == other.coeffs
        return NotImplemented

    __hash__ = None

    def _wrap(self, other):
        if isinstance(other, MPoly):
            if other.nvars != self.nvars:
                raise ValueError("variable count mismatch")
            return other
        if isinstance(other, (int, Fraction, GaussianRational)):
            return MPoly.const(self.nvars, other)
        return None

    def _merge(self, other, op):
        """self + other or self - other (``op`` add or sub), zero sums dropped."""
        other = self._wrap(other)
        if other is None:
            return NotImplemented
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            s = op(out[e], c) if e in out else c if op is add else -c
            if s:
                out[e] = s
            else:
                del out[e]
        return MPoly._of(self.nvars, out)

    def __add__(self, other):
        return self._merge(other, add)

    __radd__ = __add__

    def __neg__(self):
        return MPoly._of(self.nvars, {e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        return self._merge(other, sub)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            if not other:
                return MPoly.zero(self.nvars)
            return MPoly._of(self.nvars, {e: c * other for e, c in self.coeffs.items()})
        other = self._wrap(other)
        if other is None:
            return NotImplemented
        out = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return MPoly._of(self.nvars, out)

    __rmul__ = __mul__

    def mul_var(self, index):
        """x_index times self, as a shift of exponents."""
        shift = lambda e: e[:index] + (e[index] + 1,) + e[index + 1:]
        return MPoly._of(self.nvars, {shift(e): c for e, c in self.coeffs.items()})

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("nonnegative integer powers only")
        out = MPoly.const(self.nvars, Fraction(1))
        for _ in range(k):
            out = out * self
        return out

    def eval(self, point):
        if len(point) != self.nvars:
            raise ValueError("point arity mismatch")
        total = Fraction(0)
        for exps, c in self.coeffs.items():
            term = c
            for v, e in zip(point, exps):
                for _ in range(e):
                    term = term * v
            total = total + term
        return demote(total)

    def total_degree(self):
        if not self.coeffs:
            return -1
        return max(sum(e) for e in self.coeffs)

    def var_degree(self, index):
        if not self.coeffs:
            return -1
        return max(e[index] for e in self.coeffs)

    def depends_on(self, index):
        return any(e[index] for e in self.coeffs)

    def coeff(self, exps):
        return self.coeffs.get(tuple(exps), Fraction(0))

    def shift_var(self, index, offset):
        """Substitute x_index -> x_index + offset (offset a field constant)."""
        xvar = MPoly.var(index, self.nvars)
        shifted_powers = [MPoly.const(self.nvars, Fraction(1))]
        for _ in range(self.var_degree(index) if self.coeffs else 0):
            shifted_powers.append(shifted_powers[-1] * (xvar + offset))
        out = MPoly.zero(self.nvars)
        for exps, c in self.coeffs.items():
            rest = list(exps)
            e = rest[index]
            rest[index] = 0
            out = out + MPoly(self.nvars, {tuple(rest): c}) * shifted_powers[e]
        return out

    def to_json(self):
        terms = []
        for exps in sorted(self.coeffs):
            entry = dict(zip(("dx", "dy", "dz"), exps))
            entry["coeff"] = field_str(self.coeffs[exps])
            terms.append(entry)
        return terms


# ---------------------------------------------------------------------------
# linear combinations in Gaussian integers
# ---------------------------------------------------------------------------

def _rank(value):
    """The type of a coefficient as a rank, 0 int, 1 Fraction, 2
    GaussianRational: a binary * or + has the higher rank of its operands."""
    if isinstance(value, GaussianRational):
        return 2
    return 1 if isinstance(value, Fraction) else 0


def _integer_terms(polys):
    """(den, terms): the polys' coefficients as Gaussian integers (A + Bi) /
    den over one denominator, terms[k] the (e, A, B, rank) of the terms of
    polys[k]."""
    values = [c for p in polys for c in p.coeffs.values()]
    den, parts = integer_parts(values)
    flat = zip(parts, map(_rank, values))
    return den, [[(e, a, b, r) for e, ((a, b), r) in zip(p.coeffs, flat)] for p in polys]


def _combine_row(row, den, terms):
    """The coefficients of sum_k row[k] polys[k], the polys as
    :func:`_integer_terms` writes them: each running sum is a Gaussian
    integer over the row's denominator times ``den``, beside the highest
    rank that entered it since it last reached zero.  Only the row's nonzero
    coefficients are written in integers."""
    if len(row) != len(terms):
        raise ValueError("coefficient and polynomial counts differ")
    nonzero = [(k, poly_terms) for k, poly_terms in zip(row, terms) if k]
    kden, kparts = integer_parts([k for k, _ in nonzero])
    scale = kden * den
    out = {}
    get = out.get
    for (ka, kb), (k, poly_terms) in zip(kparts, nonzero):
        kr = _rank(k)
        for e, a, b, r in poly_terms:
            pa, pb, r = ka * a - kb * b, ka * b + kb * a, max(r, kr)
            old = get(e)
            if old is None:
                out[e] = pa, pb, r
                continue
            pa, pb = old[0] + pa, old[1] + pb
            if pa or pb:
                out[e] = pa, pb, max(old[2], r)
            else:
                del out[e]
    return {e: _field(a, b, r, scale) for e, (a, b, r) in out.items()}


def _field(a, b, rank, den):
    """(a + bi) / den as a value of the rank's type (an int when rank 0,
    when den divides a and b is 0)."""
    if rank == 2:
        return GaussianRational(Fraction(a, den), Fraction(b, den))
    return Fraction(a, den) if rank else a // den


# ---------------------------------------------------------------------------
# node-product bases
# ---------------------------------------------------------------------------

# the linear lattice's basis: plain powers of x
MONOMIAL = linear()


def graded(n, nvars):
    """The slots of degree n: the exponents e of total degree n in ``nvars``
    variables, the first variable's falling (for two, slot k is (n - k, k)).
    Slot k of a degree-n vector holds the label e and the member led by x^e."""
    if nvars == 1:
        return [(n,)] if n >= 0 else []
    return [(a,) + rest for a in range(n, -1, -1) for rest in graded(n - a, nvars - 1)]


def u_blocks(lattices, n):
    """U_{n,n-1} and U_{n,n-2} of F^[n] = X_n + U_{n,n-1} X_{n-1} + U_{n,n-2}
    X_{n-2} + ..., the tensor basis of the lattices (one per variable) on the
    monomials.  F_a = prod_{k<a} (x - f_k) has x^(a-1) coefficient
    h1(a) = -e1(f_0..f_{a-1}) and x^(a-2) coefficient h2(a) = e2(f_0..f_{a-1}),
    so row e holds h1(e_v) at e - unit_v, and h2(e_v) at e - 2 unit_v and
    h1(e_v) h1(e_w) at e - unit_v - unit_w; all 0 on a linear lattice."""
    h1, h2 = [], []
    for lattice in lattices:
        e1, e2 = [Fraction(0)], [Fraction(0)]
        for k in range(n):
            f = lattice.node(k)
            e2.append(e2[-1] + f * e1[-1])
            e1.append(e1[-1] + f)
        h1.append([-x for x in e1])
        h2.append(e2)
    nvars = len(lattices)
    places = [{e: c for c, e in enumerate(graded(d, nvars))} for d in (n - 1, n - 2)]
    u1, u2 = (ExactMatrix.zero(len(graded(n, nvars)), len(cols)) for cols in places)
    drop = lambda e, v: e[:v] + (e[v] - 1,) + e[v + 1:]
    for k, e in enumerate(graded(n, nvars)):
        for v, a in enumerate(e):
            if a >= 1:
                u1[k, places[0][drop(e, v)]] = h1[v][a]
            if a >= 2:
                u2[k, places[1][drop(drop(e, v), v)]] = h2[v][a]
            for w in range(v + 1, nvars):
                if a and e[w]:
                    u2[k, places[1][drop(drop(e, v), w)]] = h1[v][a] * h1[w][e[w]]
    return u1, u2


# ---------------------------------------------------------------------------
# symbolic operator action on polynomials in the lattice variables
# ---------------------------------------------------------------------------

def poly_shift_pair(p: MPoly, var, spec: LatticeSpec):
    """Split f(x +- w + c0) = A(x) +- B(x) w over w^2 = wsq(x).

    Returns (A, B) = (S f, D f) as polynomials in the lattice variables.
    """
    (q0, q1), c0 = spec.shift_algebra()
    x = MPoly.var(var, p.nvars)
    q = q1 * x + MPoly.const(p.nvars, q0)
    shift = x + MPoly.const(p.nvars, c0)
    # Horner in the quadratic extension, coefficients taken top degree down
    deg = p.var_degree(var)
    if deg < 0:
        return MPoly.zero(p.nvars), MPoly.zero(p.nvars)
    slices = [{} for _ in range(deg + 1)]
    for exps, c in p.coeffs.items():
        slices[exps[var]][exps[:var] + (0,) + exps[var + 1:]] = c
    slices = [MPoly._of(p.nvars, s) for s in slices]
    a = MPoly.zero(p.nvars)
    b = MPoly.zero(p.nvars)
    for d in range(deg, -1, -1):
        a, b = a * shift + b * q + slices[d], a + b * shift
    return a, b


def poly_S(p: MPoly, var, spec: LatticeSpec) -> MPoly:
    return poly_shift_pair(p, var, spec)[0]


def poly_D(p: MPoly, var, spec: LatticeSpec) -> MPoly:
    return poly_shift_pair(p, var, spec)[1]


# ---------------------------------------------------------------------------
# printed operator matrices on the quadratic tensor F-basis
# ---------------------------------------------------------------------------

class OperatorMatrices:
    __slots__ = ("n", "E1", "E2", "J1", "J2", "L1", "L2", "M1", "M2")

    def __init__(self, n, E1, E2, J1, J2, L1, L2, M1, M2):
        self.n = n
        self.E1, self.E2 = E1, E2
        self.J1, self.J2 = J1, J2
        self.L1, self.L2 = L1, L2
        self.M1, self.M2 = M1, M2

    def to_json(self):
        return {
            name: getattr(self, name).to_json()
            for name in ("E1", "E2", "J1", "J2", "L1", "L2", "M1", "M2")
        }


def l_columns(n, j, nvars):
    """The column of L_{n,j} that each slot of degree n maps to: x_j x^e =
    x^(e + unit_j), read among the slots of degree n + 1."""
    columns = {e: c for c, e in enumerate(graded(n + 1, nvars))}
    return [columns[e[:j - 1] + (e[j - 1] + 1,) + e[j:]] for e in graded(n, nvars)]


def l_matrix(n, j, nvars):
    """L_{n,j}: x_j acting on the slots, x_j x^e = x^(e + unit_j) for the
    slot e of degree n; for two variables [I | 0] and [0 | I]."""
    out = ExactMatrix.zero(len(graded(n, nvars)), len(graded(n + 1, nvars)))
    for k, c in enumerate(l_columns(n, j, nvars)):
        out[k, c] = Fraction(1)
    return out


def operator_matrices(n, beta1, beta2) -> OperatorMatrices:
    """The eight matrices E/J/L/M of the column-vector identities, exactly
    as printed: E, J of size (n+1) x n, L of size (n+1) x (n+2), M diagonal
    of size (n+1) x (n+1)."""
    e1 = ExactMatrix.zero(n + 1, n)
    e2 = ExactMatrix.zero(n + 1, n)
    j1 = ExactMatrix.zero(n + 1, n)
    j2 = ExactMatrix.zero(n + 1, n)
    for k in range(n):
        e1[k, k] = Fraction(n - k)
        j1[k, k] = structure_scalars(n - k, beta1)[1]
        e2[k + 1, k] = Fraction(k + 1)
        j2[k + 1, k] = structure_scalars(k + 1, beta2)[1]
    m1 = ExactMatrix.diagonal(
        [structure_scalars(n - k, beta1)[0] for k in range(n + 1)]
    )
    m2 = ExactMatrix.diagonal(
        [structure_scalars(k, beta2)[0] for k in range(n + 1)]
    )
    return OperatorMatrices(n, e1, e2, j1, j2, l_matrix(n, 1, 2), l_matrix(n, 2, 2), m1, m2)


# printed closed forms for the top expansion coefficients of F_n

def h_closed_1(n, beta):
    beta = Fraction(beta)
    return (Fraction(-4 * n**3 + n) + 12 * beta * beta * n) / 48


def h_closed_2(n, beta):
    beta = Fraction(beta)
    b2 = beta * beta
    return (
        Fraction((n - 1) * n)
        * (
            720 * b2 * b2
            + 120 * b2 * (1 - 4 * n * n)
            + Fraction((2 * n - 3) * (2 * n - 1) * (2 * n + 1) * (10 * n + 7))
        )
        / 23040
    )


# ---------------------------------------------------------------------------
# exact interpolation
# ---------------------------------------------------------------------------

_ZERO = Fraction(0)
_GAUSS_ZERO = GaussianRational(0, 0)


def interpolation_plan(nodes):
    """The inverse Vandermonde matrix of the rational ``nodes`` as integer
    weights over one denominator, ``(weights, den)``: the interpolant of
    values y_i at the nodes has monomial coefficient d (low -> high)
    sum_i weights[d][i] y_i / den.

    With the nodes written as a_i / D over one common denominator, the
    Lagrange basis polynomial of node i has coefficient d equal to
    q_i[d] D^d / w_i, where q_i = prod_{j != i} (X - a_j) and
    w_i = q_i(a_i) = prod_{j != i} (a_i - a_j) are integers.  The q_i are
    quotients of prod_j (X - a_j) by one synthetic division each, so the
    plan takes O(m^2) integer operations; den is the lcm of the |w_i|."""
    scale = lcm(*(x.denominator for x in nodes))
    ints = [x.numerator * (scale // x.denominator) for x in nodes]
    master = [1]  # prod_j (X - a_j), low -> high
    for a in ints:
        master = [-a * master[0], *(lo - a * hi for lo, hi in zip(master, master[1:])), 1]
    quotients, spreads = [], []
    for a in ints:
        q = [1]
        for c in reversed(master[1:-1]):
            q.append(c + a * q[-1])
        q.reverse()
        w = 0
        for c in reversed(q):
            w = w * a + c
        if not w:
            raise ValueError("repeated interpolation node")
        quotients.append(q)
        spreads.append(w)
    den = lcm(*spreads)
    cofactors = [den // w for w in spreads]
    weights = []
    power = 1
    for d in range(len(ints)):
        weights.append([q[d] * power * c for q, c in zip(quotients, cofactors)])
        power *= scale
    return weights, den


def _apply_plans(plans, numerators):
    """Integer numerators of the coefficients, from those of the samples
    (flat, row-major over the axes): each plan in turn, last axis first, is
    applied along the tensor's last axis, and the axis of its results then
    leads, so the coefficients end up in the samples' axis order."""
    flat = numerators
    for weights, _ in reversed(plans):
        m = len(weights)
        blocks = [flat[k:k + m] for k in range(0, len(flat), m)]
        flat = [sum(map(mul, row, block)) for row in weights for block in blocks]
    return flat


def _interpolate(plans, values):
    """Monomial coefficients of the tensor interpolant of ``values`` (flat,
    row-major over the nodes of ``plans``, one plan per axis), in the same
    order, with the types of :func:`interpolate_univariate`.  The samples
    are written as integers over one common denominator, and
    :func:`_interpolate_parts` does the rest."""
    den, parts = integer_parts(values)
    gaussian = any(isinstance(v, GaussianRational) for v in values)
    return _interpolate_parts(plans, den, parts, gaussian)


def _interpolate_parts(plans, den, parts, gaussian):
    """The integer core of :func:`_interpolate`, from the samples
    (A + Bi) / den given as the (A, B) of ``parts``: real and imaginary
    parts go through the plans apart, as integer matrix products, and each
    nonzero coefficient becomes one Fraction (one per part) at the end,
    every coefficient a GaussianRational when ``gaussian``, else a
    Fraction."""
    if len(parts) != prod(len(weights) for weights, _ in plans):
        raise ValueError("nodes/values length mismatch")
    den *= prod(d for _, d in plans)
    real = _apply_plans(plans, [a for a, _ in parts])
    if not gaussian:
        return [Fraction(a, den) if a else _ZERO for a in real]
    imag = _apply_plans(plans, [b for _, b in parts])
    return [
        GaussianRational(Fraction(a, den), Fraction(b, den)) if a or b else _GAUSS_ZERO
        for a, b in zip(real, imag)
    ]


def _mpoly(plans, coeffs) -> MPoly:
    exps = product(*(range(len(weights)) for weights, _ in plans))
    return MPoly(len(plans), dict(zip(exps, coeffs)))


def interpolate_univariate(nodes, values):
    """Monomial coefficients (low -> high) of the unique interpolant.

    If every value is a Fraction, every coefficient is a Fraction; if any
    value is a GaussianRational, every coefficient is one, even a real
    one.  This is what Newton interpolation with a division at each step
    gives."""
    return _interpolate([interpolation_plan(nodes)], values)


def interpolate_bivariate(xnodes, ynodes, value_at) -> MPoly:
    """Exact tensor interpolation on lattice values; value_at(i, j) supplies
    the sample at (xnodes[i], ynodes[j]).  One plan per axis; coefficient
    types as in :func:`interpolate_univariate`."""
    plans = [interpolation_plan(xnodes), interpolation_plan(ynodes)]
    values = [value_at(i, j) for i in range(len(xnodes)) for j in range(len(ynodes))]
    return _mpoly(plans, _interpolate(plans, values))


def _plans(lattices, axes):
    """One interpolation plan per axis of a grid: the lattice's values at
    the axis's coordinates."""
    return [
        interpolation_plan([lattice_value(lattice, s) for s in axis])
        for lattice, axis in zip(lattices, axes)
    ]


def interpolate_on_grid(lattices, count, sample):
    """The oracle grid: ``count`` lattice points per axis (``grid_axes``)
    of the ``lattices``; ``sample(point)`` returns a list of values at a
    grid point, and the k-th returned MPoly interpolates the k-th values
    in the lattice variables.  One plan per axis serves every member;
    coefficient types as in :func:`interpolate_univariate`, per member."""
    axes = grid_axes(lattices, count)
    plans = _plans(lattices, axes)
    samples = [sample(point) for point in product(*axes)]
    return [
        _mpoly(plans, _interpolate(plans, [values[k] for values in samples]))
        for k in range(len(samples[0]))
    ]


def interpolate_parts_on_grid(lattices, axes, members):
    """The interpolants on the grid of ``axes`` (one list of coordinates
    per lattice) of ``members``, each (den, [(A, B)]): its values
    (A + Bi) / den at the grid points, row-major, as
    ``families.family_grid`` gives them.  One plan per axis serves every
    member.  A member's coefficients are GaussianRationals when some B is
    nonzero, else Fractions: the types :func:`interpolate_on_grid` gives
    when each value is ``exactfield.from_parts(den, A, B)``."""
    plans = _plans(lattices, axes)
    return [
        _mpoly(plans, _interpolate_parts(plans, den, parts, any(b for _, b in parts)))
        for den, parts in members
    ]
