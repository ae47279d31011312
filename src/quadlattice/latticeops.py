"""Lattices and the three divided-difference / averaging operator pairs.

Three operator calculi appear, one per lattice kind.  Each shifts a point
by half a step up and down, and D f = (f(up) - f(down)) / (x(up) - x(down)),
S f = (f(up) + f(down)) / 2:

* Quadratic(beta):  lattice x(s) = s(s+beta), real half-shifts s -> s +- 1/2,
  D denominator 2s + beta.
* WilsonSquare:     lattice x^2, imaginary shifts x -> x +- i/2, denominator 2ix.
* Linear:           lattice x itself, imaginary shifts, denominator i.

:func:`inverse_denominator` is D's one definition: its denominator, its
singular points and, through :func:`half_step` and :class:`GridAxis`, the
singular set every grid avoids.  It gives the reciprocal denominator in
integers, a triple (N, A, B) standing for (A + Bi) / N in lowest terms with
N > 0; the pointwise stencil weights (``pdeverify._axis_entry``),
:func:`apply_D` and the grid filter all read that triple, and no other code
forms a D denominator.

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
from math import gcd

from .exactfield import GaussianRational, _gauss, demote, from_parts, integer_parts

HALF = Fraction(1, 2)
QUARTER = Fraction(1, 4)

# the default offset of every grid coordinate s = k + offset (GridAxis)
GRID_OFFSET = Fraction(1, 7)


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
    """(up, down): point +- 1/2 on the quadratic lattice, and point +- i/2
    on the Wilson and linear lattices, a GaussianRational formed from the
    point's parts even where it is real."""
    if spec.kind == LatticeSpec.QUADRATIC:
        return point + HALF, point - HALF
    if isinstance(point, GaussianRational):
        re, im = point.re, point.im
        return _gauss(re, im + HALF), _gauss(re, im - HALF)
    re = point if isinstance(point, Fraction) else Fraction(point)
    return _gauss(re, HALF), _gauss(re, -HALF)


def inverse_denominator(spec, point):
    """(N, A, B): the reciprocal denominator of D at the point,
    1 / (x(up) - x(down)) = (A + Bi) / N in lowest terms with N > 0, the
    reciprocal of 2s + beta on the quadratic lattice, of 2is on the Wilson
    square and of i on the linear lattice.  The one definition of a D
    denominator and its one test for zero; SingularPointError where it
    vanishes."""
    if spec.kind == LatticeSpec.LINEAR:
        return 1, 0, -1
    m, ((a, b),) = integer_parts((point,))
    if spec.kind == LatticeSpec.QUADRATIC:
        # 2 (a + bi) / m + p / q over m q
        p, q = spec.beta.numerator, spec.beta.denominator
        m, re, im = m * q, 2 * a * q + p * m, 2 * b * q
    else:
        # 2i (a + bi) / m
        re, im = -2 * b, 2 * a
    # 1 / ((re + im i) / m) = m (re - im i) / (re^2 + im^2)
    n = re * re + im * im
    if not n:
        raise SingularPointError(f"stencil denominator vanishes at {point} on {spec!r}")
    g = gcd(n, m * re, m * im)
    return n // g, m * re // g, -m * im // g


def half_step(spec, point):
    """(up, down, (N, A, B)): the half-shifted points and the reciprocal
    denominator of D at the point (:func:`inverse_denominator`), which is
    checked first."""
    inv = inverse_denominator(spec, point)
    return (*shifted_points(spec, point), inv)


def apply_D(spec, f, point):
    """Divided difference of f at the point; exact, or SingularPointError."""
    up, down, inv = half_step(spec, point)
    return demote((f(up) - f(down)) * from_parts(*inv))


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


class GridAxis:
    """The nonsingular grid coordinates s = k + offset of one lattice, taken
    for k = origin, origin + 1, ... and kept: a prefix that only grows.

    A candidate is dropped where a D denominator vanishes at s, s +- 1/2 or
    s +- 1: a nested second-order operator (S D or D^2) divides at s and
    s +- 1/2, and one acting on a divided difference also at s +- 1.  It is
    also dropped where its lattice value repeats an earlier one, so the
    values are pairwise distinct, which is what the interpolation arguments
    need.  Each candidate is examined once, however many counts are asked.
    """

    __slots__ = ("lattice", "origin", "offset", "_points", "_next", "_seen")

    def __init__(self, lattice, origin=1, offset=GRID_OFFSET):
        self.lattice = lattice
        self.origin = origin
        self.offset = Fraction(offset)
        self._points = []
        self._next = origin
        self._seen = set()

    def take(self, count):
        """The first ``count`` coordinates, extending the prefix as far as
        needed.  SingularPointError when fewer than ``count`` of them lie at
        k <= origin + 40 count + 99, whether the prefix held them already or
        not."""
        bound = self.origin + 40 * count + 100
        points = self._points
        while len(points) < count:
            k = self._next
            if k + 1 > bound:
                raise SingularPointError("could not assemble a nonsingular grid")
            self._next = k + 1
            s = Fraction(k) + self.offset
            if not _nonsingular(self.lattice, s):
                continue
            xval = lattice_value(self.lattice, s)
            if xval in self._seen:
                continue
            self._seen.add(xval)
            points.append(s)
        if count and points[count - 1] - self.offset + 1 > bound:
            raise SingularPointError("could not assemble a nonsingular grid")
        return points[:count]


def grid_points(spec, count, origin=1, offset=GRID_OFFSET):
    """The first ``count`` coordinates of a fresh :class:`GridAxis`."""
    return GridAxis(spec, origin, offset).take(count)


def lattice_axes(lattices, offset=GRID_OFFSET):
    """One :class:`GridAxis` per lattice: axis j (from 0) takes its
    coordinates from origin j + 1."""
    return [GridAxis(lat, 1 + k, offset) for k, lat in enumerate(lattices)]


def grid_axes(lattices, count, offset=GRID_OFFSET):
    """Axes of a tensor grid, ``count`` values per lattice, from fresh
    :func:`lattice_axes`.  The recovery grid reads it; a family spec keeps
    its own axes (``FamilySpec.grid_axes``) for the proof and oracle grids."""
    return [axis.take(count) for axis in lattice_axes(lattices, offset)]


# a GridAxis examines each candidate once, but the specs and commands of one
# process share lattices, so they ask again for the same candidates: in a
# seed-3 perfbench job 28 of 54 calls hit on pde-sweep, 86 of 124 on forms
# and 58 of 84 on ttrr, and without the cache proof_s read about 3 % higher
# on pde-sweep and forms (2 cores, CPython 3.11)
@lru_cache(maxsize=4096)
def _nonsingular(spec, s):
    try:
        up, down, _ = half_step(spec, s)
        half_step(spec, half_step(spec, up)[0])
        half_step(spec, half_step(spec, down)[1])
    except SingularPointError:
        return False
    return True
