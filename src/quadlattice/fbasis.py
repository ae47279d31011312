"""Monic bases on quadratic lattices, polynomial arithmetic, and the
coefficient-space action of the divided-difference operators.

The basis F_n attached to a quadratic lattice x(s) = s(s+beta) satisfies

    F_{n+1}(x) = (x - f_n(beta)) F_n(x),        F_0 = 1,

so F_n is the Newton-style product over the nodes f_k(beta) with

    f_n(beta) = ((2n+1)^2 - 4 beta^2) / 16,     g_n = n(2n-1)/4,

and obeys  D F_n = n F_{n-1},  S F_n = F_n + g_n F_{n-1},
x F_n = F_{n+1} + f_n F_n.  The analogous monic basis for the Wilson
operator pair uses the nodes -f_k(0) (the S and x-multiplication relations
then flip the sign of their second term), and the linear lattice simply uses
powers of x.  All three are node-product bases, which keeps every change of
basis an exact synthetic-division pass.
"""

from __future__ import annotations

from fractions import Fraction

from .exactfield import GaussianRational, demote
from .latticeops import LatticeSpec
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
        if isinstance(other, MPoly):
            return self.nvars == other.nvars and self.coeffs == other.coeffs
        if not self.coeffs:
            return other == 0
        key = (0,) * self.nvars
        return set(self.coeffs) == {key} and self.coeffs[key] == other

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

    def to_json(self, names=("dx", "dy", "dz")):
        from .exactfield import field_str

        terms = []
        for exps in sorted(self.coeffs):
            entry = {names[i]: exps[i] for i in range(self.nvars)}
            entry["coeff"] = field_str(self.coeffs[exps])
            terms.append(entry)
        return terms


# ---------------------------------------------------------------------------
# node-product bases
# ---------------------------------------------------------------------------

def structure_scalars(n, beta):
    """The scalars f_n(beta) and g_n of the basis relations."""
    beta = Fraction(beta)
    f_n = (Fraction((2 * n + 1) ** 2) - 4 * beta * beta) / 16
    g_n = Fraction(n * (2 * n - 1), 4)
    return f_n, g_n


class PolyBasis:
    """A monic node-product basis B_n(u) = prod_{k<n} (u - node_k)."""

    __slots__ = ("kind", "beta")

    MONOMIAL = "monomial"
    FTENSOR = "ftensor"
    WILSONF = "wilsonf"

    def __init__(self, kind, beta=None):
        self.kind = kind
        self.beta = None if beta is None else Fraction(beta)

    def node(self, k):
        if self.kind == self.MONOMIAL:
            return Fraction(0)
        if self.kind == self.FTENSOR:
            return structure_scalars(k, self.beta)[0]
        return -structure_scalars(k, 0)[0]

    def __eq__(self, other):
        return (
            isinstance(other, PolyBasis)
            and self.kind == other.kind
            and self.beta == other.beta
        )

    def __hash__(self):
        return hash((self.kind, self.beta))

    def __repr__(self):
        if self.kind == self.FTENSOR:
            return f"PolyBasis(ftensor, beta={self.beta})"
        return f"PolyBasis({self.kind})"


MONOMIAL = PolyBasis(PolyBasis.MONOMIAL)


def ftensor(beta):
    return PolyBasis(PolyBasis.FTENSOR, beta)


def wilson_fbasis():
    return PolyBasis(PolyBasis.WILSONF)


def basis_for_lattice(spec: LatticeSpec) -> PolyBasis:
    if spec.kind == LatticeSpec.QUADRATIC:
        return ftensor(spec.beta)
    if spec.kind == LatticeSpec.WILSON:
        return wilson_fbasis()
    return MONOMIAL


def basis_poly(basis: PolyBasis, n, index=0, nvars=1) -> MPoly:
    """B_n as an explicit monomial polynomial in variable ``index``."""
    out = MPoly.const(nvars, Fraction(1))
    x = MPoly.var(index, nvars)
    for k in range(n):
        out = out * (x - basis.node(k))
    return out


def basis_value(basis: PolyBasis, n, u):
    out = Fraction(1)
    for k in range(n):
        out = out * (u - basis.node(k))
    return demote(out)


def f_basis_eval(n, beta, s):
    """Value of F_n on the quadratic lattice at grid coordinate s."""
    x = s * (s + Fraction(beta))
    return basis_value(ftensor(beta), n, x)


# univariate coefficient-list transforms (index = degree)

def nodes_to_monomial(coeffs, basis: PolyBasis):
    out = [0 * c for c in coeffs] if coeffs else []
    if not coeffs:
        return []
    n = len(coeffs) - 1
    # running product prod_{k<m} (u - node_k), coefficients low->high
    prod = [Fraction(1)]
    for m in range(n + 1):
        for d, pc in enumerate(prod):
            term = coeffs[m] * pc
            out[d] = out[d] + term
        node = basis.node(m)
        nxt = [Fraction(0)] * (len(prod) + 1)
        for d, pc in enumerate(prod):
            nxt[d + 1] = nxt[d + 1] + pc
            nxt[d] = nxt[d] - node * pc
        prod = nxt
    return out


def monomial_to_nodes(coeffs, basis: PolyBasis):
    work = list(coeffs)
    out = []
    for k in range(len(coeffs)):
        node = basis.node(k)
        # synthetic division of work by (u - node): remainder, then quotient
        rem = work[-1]
        quot = [work[-1]]
        for c in reversed(work[:-1]):
            rem = c + node * rem
            quot.append(rem)
        quot.reverse()
        out.append(quot[0])
        work = quot[1:]
        if not work:
            break
    return out


# ---------------------------------------------------------------------------
# BivarPoly: dual-representation bivariate polynomials
# ---------------------------------------------------------------------------

class BivarPoly:
    """Bivariate polynomial in the lattice variables, with a basis tag per
    variable (monomial or tensor F-basis).  Coefficients are stored in the
    tagged basis; conversion is an exact bijection."""

    __slots__ = ("bases", "coeffs")

    def __init__(self, bases, coeffs):
        self.bases = tuple(bases)
        self.coeffs = {tuple(e): c for e, c in coeffs.items() if c}

    @classmethod
    def from_mpoly(cls, p: MPoly, bases=(MONOMIAL, MONOMIAL)):
        out = cls(bases, {})
        if bases == (MONOMIAL, MONOMIAL):
            out.coeffs = dict(p.coeffs)
            return out
        return cls((MONOMIAL, MONOMIAL), p.coeffs).convert(bases)

    def to_mpoly(self) -> MPoly:
        return MPoly(2, self.convert((MONOMIAL, MONOMIAL)).coeffs)

    def convert(self, target_bases) -> "BivarPoly":
        target_bases = tuple(target_bases)
        coeffs = self.coeffs
        bases = self.bases
        for var in (0, 1):
            if bases[var] == target_bases[var]:
                continue
            coeffs = _transform_var(coeffs, var, bases[var], target_bases[var])
        return BivarPoly(target_bases, coeffs)

    def eval(self, uv):
        u, v = uv
        total = Fraction(0)
        cache_u = {}
        cache_v = {}
        for (i, j), c in self.coeffs.items():
            if i not in cache_u:
                cache_u[i] = basis_value(self.bases[0], i, u)
            if j not in cache_v:
                cache_v[j] = basis_value(self.bases[1], j, v)
            total = total + c * cache_u[i] * cache_v[j]
        return demote(total)

    def total_degree(self):
        if not self.coeffs:
            return -1
        return max(i + j for i, j in self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, BivarPoly):
            return NotImplemented
        if self.bases == other.bases:
            return self.coeffs == other.coeffs
        return self.to_mpoly() == other.to_mpoly()

    def to_json(self):
        from .exactfield import field_str

        return [
            {"dx": i, "dy": j, "coeff": field_str(c)}
            for (i, j), c in sorted(self.coeffs.items())
        ]


def _transform_var(coeffs, var, source: PolyBasis, target: PolyBasis):
    # group into univariate coefficient lists along `var`
    groups = {}
    for exps, c in coeffs.items():
        key = exps[1 - var]
        groups.setdefault(key, {})[exps[var]] = c
    out = {}
    for key, column in groups.items():
        deg = max(column)
        lst = [column.get(d, Fraction(0)) for d in range(deg + 1)]
        if source.kind != PolyBasis.MONOMIAL:
            lst = nodes_to_monomial(lst, source)
        if target.kind != PolyBasis.MONOMIAL:
            lst = monomial_to_nodes(lst, target)
        for d, c in enumerate(lst):
            if not c:
                continue
            exps = (d, key) if var == 0 else (key, d)
            out[exps] = out.get(exps, 0) + c
    return {e: c for e, c in out.items() if c}


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
    l1 = ExactMatrix.zero(n + 1, n + 2)
    l2 = ExactMatrix.zero(n + 1, n + 2)
    for k in range(n + 1):
        l1[k, k] = Fraction(1)
        l2[k, k + 1] = Fraction(1)
    m1 = ExactMatrix.diagonal(
        [structure_scalars(n - k, beta1)[0] for k in range(n + 1)]
    )
    m2 = ExactMatrix.diagonal(
        [structure_scalars(k, beta2)[0] for k in range(n + 1)]
    )
    return OperatorMatrices(n, e1, e2, j1, j2, l1, l2, m1, m2)


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


def u_matrices(n, basis_x: PolyBasis, basis_y: PolyBasis):
    """U_{n,n-1} and U_{n,n-2} of the expansion F_n = x^n + U x^{n-1} + ...

    Built directly from the product expansions of the tensor basis entries,
    so they stay correct for every basis variant in play.
    """
    xpolys = [basis_poly(basis_x, k) for k in range(n + 1)]
    ypolys = [basis_poly(basis_y, k) for k in range(n + 1)]
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

def interpolate_univariate(nodes, values):
    """Monomial coefficients (low -> high) of the unique interpolant."""
    n = len(nodes)
    if len(values) != n:
        raise ValueError("nodes/values length mismatch")
    # Newton divided differences
    table = list(values)
    newton = []
    for k in range(n):
        newton.append(table[0])
        nxt = []
        for i in range(len(table) - 1):
            den = nodes[i + k + 1] - nodes[i]
            if not den:
                raise ValueError("repeated interpolation node")
            nxt.append((table[i + 1] - table[i]) / den)
        table = nxt
    # expand the Newton form
    coeffs = [Fraction(0)] * n
    prod = [Fraction(1)]
    for k in range(n):
        for d, pc in enumerate(prod):
            coeffs[d] = coeffs[d] + newton[k] * pc
        nxt = [Fraction(0)] * (len(prod) + 1)
        for d, pc in enumerate(prod):
            nxt[d + 1] = nxt[d + 1] + pc
            nxt[d] = nxt[d] - nodes[k] * pc
        prod = nxt
    return coeffs


def interpolate_bivariate(xnodes, ynodes, value_at) -> MPoly:
    """Exact tensor interpolation on lattice values; value_at(i, j) supplies
    the sample at (xnodes[i], ynodes[j])."""
    rows = []
    for i in range(len(xnodes)):
        coeffs_j = interpolate_univariate(
            ynodes, [value_at(i, j) for j in range(len(ynodes))]
        )
        rows.append(coeffs_j)
    out = {}
    for jdeg in range(len(ynodes)):
        column = [rows[i][jdeg] if jdeg < len(rows[i]) else Fraction(0) for i in range(len(xnodes))]
        coeffs_i = interpolate_univariate(xnodes, column)
        for ideg, c in enumerate(coeffs_i):
            if c:
                out[(ideg, jdeg)] = c
    return MPoly(2, out)
