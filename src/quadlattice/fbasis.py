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
basis is named by its lattice, and :func:`to_basis` reads an MPoly's
coefficients off the tensor basis of given lattices by exact synthetic
division.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import lcm, prod
from operator import mul

from .exactfield import GaussianRational, demote, integer_parts
from .latticeops import LatticeSpec, grid_axes, lattice_value, linear, structure_scalars
from .matrix import ExactMatrix


# ---------------------------------------------------------------------------
# sparse exact polynomials
# ---------------------------------------------------------------------------

class MPoly:
    """Sparse polynomial in a fixed number of variables over Q or Q(i)."""

    __slots__ = ("nvars", "coeffs")

    def __init__(self, nvars, coeffs=None):
        self.nvars = nvars
        self.coeffs = {}
        if coeffs:
            for exps, c in coeffs.items():
                if c:
                    self.coeffs[tuple(exps)] = c

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

    def is_zero(self):
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        # an MPoly equals only an MPoly, so that equal values hash equal
        if isinstance(other, MPoly):
            return self.nvars == other.nvars and self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash((self.nvars, frozenset(self.coeffs.items())))

    def _wrap(self, other):
        if isinstance(other, MPoly):
            if other.nvars != self.nvars:
                raise ValueError("variable count mismatch")
            return other
        if isinstance(other, (int, Fraction, GaussianRational)):
            return MPoly.const(self.nvars, other)
        return None

    def __add__(self, other):
        other = self._wrap(other)
        if other is None:
            return NotImplemented
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return MPoly(self.nvars, out)

    __radd__ = __add__

    def __neg__(self):
        return MPoly(self.nvars, {e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        other = self._wrap(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            if not other:
                return MPoly.zero(self.nvars)
            return MPoly(self.nvars, {e: c * other for e, c in self.coeffs.items()})
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
        return MPoly(self.nvars, out)

    __rmul__ = __mul__

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
        from .exactfield import field_str

        terms = []
        for exps in sorted(self.coeffs):
            entry = dict(zip(("dx", "dy", "dz"), exps))
            entry["coeff"] = field_str(self.coeffs[exps])
            terms.append(entry)
        return terms


# ---------------------------------------------------------------------------
# node-product bases
# ---------------------------------------------------------------------------

# the linear lattice's basis: plain powers of x
MONOMIAL = linear()


def basis_polys(lattice: LatticeSpec, n, index=0, nvars=1):
    """F_0..F_n of the lattice as explicit monomial polynomials in variable
    ``index``, each the one before times (x - node)."""
    out = [MPoly.const(nvars, Fraction(1))]
    x = MPoly.var(index, nvars)
    for k in range(n):
        out.append(out[-1] * (x - lattice.node(k)))
    return out


def basis_poly(lattice: LatticeSpec, n, index=0, nvars=1) -> MPoly:
    """F_n of the lattice as an explicit monomial polynomial in variable
    ``index``."""
    return basis_polys(lattice, n, index, nvars)[-1]


def monomial_to_nodes(coeffs, lattice: LatticeSpec):
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


def to_basis(p: MPoly, lattices):
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
    slices = [MPoly.zero(p.nvars) for _ in range(deg + 1)]
    for exps, c in p.coeffs.items():
        rest = list(exps)
        d = rest[var]
        rest[var] = 0
        slices[d] = slices[d] + MPoly(p.nvars, {tuple(rest): c})
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


def l_matrix(n, j):
    """Selection matrices: L_{n,1} = [I | 0], L_{n,2} = [0 | I]."""
    out = ExactMatrix.zero(n + 1, n + 2)
    for k in range(n + 1):
        out[k, k + (j - 1)] = Fraction(1)
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
    return OperatorMatrices(n, e1, e2, j1, j2, l_matrix(n, 1), l_matrix(n, 2), m1, m2)


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


def u_matrices(n, lattice_x: LatticeSpec, lattice_y: LatticeSpec):
    """U_{n,n-1} and U_{n,n-2} of the expansion F_n = x^n + U x^{n-1} + ...

    Built directly from the product expansions of the tensor basis entries,
    so they stay correct on every lattice in play.
    """
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
    order.  The samples are written as integers over one common
    denominator, real and imaginary parts apart, each part goes through
    the plans as integer matrix products, and each nonzero coefficient
    becomes one Fraction (one per part) at the end, with the types of
    :func:`interpolate_univariate`."""
    if len(values) != prod(len(weights) for weights, _ in plans):
        raise ValueError("nodes/values length mismatch")
    den, parts = integer_parts(values)
    den *= prod(d for _, d in plans)
    real = _apply_plans(plans, [a for a, _ in parts])
    if not any(isinstance(v, GaussianRational) for v in values):
        return [Fraction(a, den) if a else _ZERO for a in real]
    imag = _apply_plans(plans, [b for _, b in parts])
    return [
        GaussianRational(Fraction(a, den), Fraction(b, den)) if a or b else _GAUSS_ZERO
        for a, b in zip(real, imag)
    ]


def _mpoly(plans, values) -> MPoly:
    exps = product(*(range(len(weights)) for weights, _ in plans))
    return MPoly(len(plans), dict(zip(exps, _interpolate(plans, values))))


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
    return _mpoly(plans, [value_at(i, j) for i in range(len(xnodes)) for j in range(len(ynodes))])


def interpolate_on_grid(lattices, count, sample):
    """The oracle grid: ``count`` lattice points per axis (``grid_axes``)
    of the ``lattices``; ``sample(point)`` returns a list of values at a
    grid point, and the k-th returned MPoly interpolates the k-th values
    in the lattice variables.  One plan per axis serves every member;
    coefficient types as in :func:`interpolate_univariate`, per member."""
    axes = grid_axes(lattices, count)
    plans = [
        interpolation_plan([lattice_value(lattice, s) for s in axis])
        for lattice, axis in zip(lattices, axes)
    ]
    samples = [sample(point) for point in product(*axes)]
    return [_mpoly(plans, [values[k] for values in samples]) for k in range(len(samples[0]))]
