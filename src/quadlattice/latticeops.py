"""Lattices and the three divided-difference / averaging operator pairs.

Three operator calculi appear, one per lattice kind.  Each shifts a point
by half a step up and down, and D f = (f(up) - f(down)) / (x(up) - x(down)),
S f = (f(up) + f(down)) / 2:

* Quadratic(beta):  lattice x(s) = s(s+beta), real half-shifts s -> s +- 1/2,
  D denominator 2s + beta.
* WilsonSquare:     lattice x^2, imaginary shifts x -> x +- i/2, denominator 2ix.
* Linear:           lattice x itself, imaginary shifts, denominator i.

:func:`half_step` is D's one definition: its denominator, its singular points
and, through :func:`grid_points`, the singular set every grid avoids.

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
from functools import lru_cache

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


def shifted_points(spec, point):
    if spec.kind == LatticeSpec.QUADRATIC:
        return point + HALF, point - HALF
    return gauss(point) + HALF_I, gauss(point) - HALF_I


def half_step(spec, point):
    """(up, down, 1 / (x(up) - x(down))): the half-shifted points and the
    reciprocal denominator of D at the point.  The one test of a D
    denominator for zero; SingularPointError where it vanishes."""
    if spec.kind == LatticeSpec.QUADRATIC:
        den = 2 * point + spec.beta
    elif spec.kind == LatticeSpec.WILSON:
        den = GaussianRational(0, 2) * gauss(point)
    else:
        den = GaussianRational(0, 1)
    if not den:
        raise SingularPointError(f"stencil denominator vanishes at {point} on {spec!r}")
    up, down = shifted_points(spec, point)
    return up, down, 1 / den


def apply_D(spec, f, point):
    """Divided difference of f at the point; exact, or SingularPointError."""
    up, down, inv = half_step(spec, point)
    return demote((f(up) - f(down)) * inv)


def partial_D(spec, f, point, var):
    """D in coordinate ``var`` (lattice ``spec``) of a function of the point."""
    head, tail = point[:var], point[var + 1:]
    return apply_D(spec, lambda v: f(head + (v,) + tail), point[var])


def apply_S(spec, f, point):
    """Averaging operator: mean of the two half-shifted values.  No proof
    path calls it: it is kept as the definition-level operator that
    criterion 9's product rules, S D / D S relations and degree changes are
    checked on."""
    up, down = shifted_points(spec, point)
    return demote((f(up) + f(down)) * HALF)


def grid_points(spec, count, origin=1, offset=Fraction(1, 7)):
    """Distinct nonsingular grid coordinates s = k + offset, k = origin, ...

    Candidates are dropped where a D denominator vanishes at s, s +- 1/2 or
    s +- 1: a nested second-order operator (S D or D^2) divides at s and
    s +- 1/2, and one acting on a divided difference also at s +- 1.  The
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


def grid_axes(lattices, count, offset=Fraction(1, 7)):
    """Axes of a tensor grid, ``count`` values per lattice: axis j (from 0)
    takes ``grid_points`` from origin j + 1.  The oracle and proof grids share it."""
    return [
        grid_points(lat, count, origin=1 + k, offset=offset)
        for k, lat in enumerate(lattices)
    ]


# every label of a sweep asks again for the candidates of the label before
@lru_cache(maxsize=4096)
def _nonsingular(spec, s):
    try:
        up, down, _ = half_step(spec, s)
        half_step(spec, half_step(spec, up)[0])
        half_step(spec, half_step(spec, down)[1])
    except SingularPointError:
        return False
    return True
