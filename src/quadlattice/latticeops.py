"""Lattices and the three divided-difference / averaging operator pairs.

Three operator calculi appear, one per lattice kind:

* Quadratic(beta):  lattice x(s) = s(s+beta), real half-shifts s -> s +- 1/2,
  D f = (f(s+1/2) - f(s-1/2)) / (x(s+1/2) - x(s-1/2)),  S f = mean.
* WilsonSquare:     lattice x^2, imaginary shifts x -> x +- i/2,
  D f = (f(x+i/2) - f(x-i/2)) / (2ix).
* Linear:           lattice x itself, imaginary shifts,
  D f = (f(x+i/2) - f(x-i/2)) / i.

All applications are pointwise on arbitrary callables ("stencil functions");
verification elsewhere turns pointwise exact zeros into polynomial identities
by interpolation counts.

Each lattice also fixes a monic basis F_n(u) = prod_{k<n} (u - node_k) in its
lattice variable u (see :mod:`quadlattice.fbasis`); :meth:`LatticeSpec.node`
gives the nodes: f_k(beta) on the quadratic lattice, -f_k(0) on the Wilson
lattice and 0 on the linear one, whose basis is the monomials.
"""

from __future__ import annotations

from fractions import Fraction

from .exactfield import GaussianRational, demote, gauss

HALF = Fraction(1, 2)
QUARTER = Fraction(1, 4)
HALF_I = GaussianRational(0, HALF)


def structure_scalars(n, beta):
    """The scalars f_n(beta) and g_n of the monic-basis relations."""
    beta = Fraction(beta)
    f_n = (Fraction((2 * n + 1) ** 2) - 4 * beta * beta) / 16
    g_n = Fraction(n * (2 * n - 1), 4)
    return f_n, g_n


class SingularPointError(ValueError):
    """An operator denominator vanished at the requested point."""


class LatticeSpec:
    """Which lattice/operator pair is in force for one variable."""

    QUADRATIC = "quadratic"
    WILSON = "wilson-square"
    LINEAR = "linear"

    def __init__(self, kind, beta=None, name="x"):
        if kind == self.QUADRATIC:
            if beta is None:
                raise ValueError("quadratic lattice needs beta")
            self.beta = Fraction(beta)
        elif kind in (self.WILSON, self.LINEAR):
            if beta is not None:
                raise ValueError(f"{kind} lattice takes no beta")
            self.beta = None
        else:
            raise ValueError(f"unknown lattice kind {kind!r}")
        self.kind = kind
        self.name = name

    def __repr__(self):
        if self.kind == self.QUADRATIC:
            return f"LatticeSpec(quadratic, beta={self.beta}, {self.name})"
        return f"LatticeSpec({self.kind}, {self.name})"

    def __eq__(self, other):
        return (
            isinstance(other, LatticeSpec)
            and self.kind == other.kind
            and self.beta == other.beta
        )

    def __hash__(self):
        return hash((self.kind, self.beta))

    # Shift algebra: x(point +- shift) = x(point) +- w + c0 with w*w = wsq(x).
    # wsq is affine in the lattice value; returned as (constant, slope).
    def shift_algebra(self):
        if self.kind == self.QUADRATIC:
            return (self.beta * self.beta / 4, Fraction(1)), QUARTER
        if self.kind == self.WILSON:
            return (Fraction(0), Fraction(-1)), -QUARTER
        return (Fraction(-1, 4), Fraction(0)), Fraction(0)

    def node(self, k):
        """The k-th node of the lattice's monic basis."""
        if self.kind == self.QUADRATIC:
            return structure_scalars(k, self.beta)[0]
        if self.kind == self.WILSON:
            return -structure_scalars(k, 0)[0]
        return Fraction(0)


def quadratic(beta, name="x"):
    return LatticeSpec(LatticeSpec.QUADRATIC, beta, name)


def wilson_square(name="x"):
    return LatticeSpec(LatticeSpec.WILSON, None, name)


def linear(name="x"):
    return LatticeSpec(LatticeSpec.LINEAR, None, name)


def lattice_value(spec, s):
    """Value of the lattice at grid coordinate s: s(s+beta), s^2, or s."""
    if spec.kind == LatticeSpec.QUADRATIC:
        return s * (s + spec.beta)
    if spec.kind == LatticeSpec.WILSON:
        return s * s
    return s


def d_denominator(spec, point):
    """x(point+1/2) - x(point-1/2) for the quadratic case, 2i*point or i else."""
    if spec.kind == LatticeSpec.QUADRATIC:
        return 2 * point + spec.beta
    if spec.kind == LatticeSpec.WILSON:
        return GaussianRational(0, 2) * gauss(point)
    return GaussianRational(0, 1)


def shifted_points(spec, point):
    if spec.kind == LatticeSpec.QUADRATIC:
        return point + HALF, point - HALF
    return gauss(point) + HALF_I, gauss(point) - HALF_I


def apply_D(spec, f, point):
    """Divided difference of f at the point; exact, or SingularPointError."""
    den = d_denominator(spec, point)
    if not den:
        raise SingularPointError(
            f"divided-difference denominator vanishes on {spec!r} at point {point}"
        )
    up, down = shifted_points(spec, point)
    return demote((f(up) - f(down)) / den)


def apply_S(spec, f, point):
    """Averaging operator: mean of the two half-shifted values."""
    up, down = shifted_points(spec, point)
    return demote((f(up) + f(down)) * HALF)


def grid_points(spec, count, origin=1, offset=Fraction(1, 7)):
    """Distinct nonsingular grid coordinates s = k + offset, k = origin, ...

    Candidates are dropped whenever any divided-difference denominator that a
    nested second-order operator (S D or D^2) can touch would vanish there.  The
    resulting lattice values are pairwise distinct, which is what the
    interpolation arguments need.
    """
    points = []
    k = origin
    seen_lattice = set()
    while len(points) < count:
        s = Fraction(k) + Fraction(offset)
        k += 1
        if k > origin + 40 * count + 100:
            raise SingularPointError("could not assemble a nonsingular grid")
        if not _nonsingular(spec, s):
            continue
        xval = lattice_value(spec, s)
        if xval in seen_lattice:
            continue
        seen_lattice.add(xval)
        points.append(s)
    return points


def _nonsingular(spec, s):
    if spec.kind == LatticeSpec.QUADRATIC:
        # nested shifts move the evaluation point by up to two half steps
        for j in range(-2, 3):
            if 2 * s + spec.beta + j == 0:
                return False
        return True
    if spec.kind == LatticeSpec.WILSON:
        # only a real zero of 2ix is possible; imaginary shifts never cancel
        return s != 0
    return True
