"""References for the tests, which no proof path needs: the lattices' monic
bases F_n written out as monomial polynomials, one node product after
another (``fbasis.u_blocks`` reads the top blocks off the nodes instead),
polynomial combinations summed in field arithmetic, term by term
(``MPoly.combine_rows`` sums them in Gaussian integers instead), and D's
half step and the one-variable S D and D^2 weights in field arithmetic
(``latticeops.half_step`` and ``pdeverify._axis_entry`` form them in
integers instead)."""

from fractions import Fraction

from quadlattice.exactfield import GaussianRational, gauss, integer_parts
from quadlattice.fbasis import MPoly
from quadlattice.latticeops import LatticeSpec, SingularPointError, shifted_points


def basis_polys(lattice, n, index=0, nvars=1):
    """F_0..F_n of the lattice as explicit monomial polynomials in variable
    ``index``, each the one before times (x - node)."""
    out = [MPoly.const(nvars, Fraction(1))]
    x = MPoly.var(index, nvars)
    for k in range(n):
        out.append(out[-1] * (x - lattice.node(k)))
    return out


def basis_poly(lattice, n, index=0, nvars=1):
    """F_n of the lattice as an explicit monomial polynomial in variable
    ``index``."""
    return basis_polys(lattice, n, index, nvars)[-1]


def chain_combine(coeffs, polys):
    """sum_k coeffs[k] polys[k] (``polys`` nonempty) in one dict of field
    values: the terms are added in order, each a binary * and +, and a sum
    that reaches zero is dropped, so each coefficient has the value and type
    of the left-to-right chain of binary operations."""
    nvars = polys[0].nvars
    out = {}
    for k, p in zip(coeffs, polys, strict=True):
        if p.nvars != nvars:
            raise ValueError("variable count mismatch")
        if not k:
            continue
        for e, c in p.coeffs.items():
            s = out[e] + c * k if e in out else c * k
            if s:
                out[e] = s
            else:
                del out[e]
    return MPoly(nvars, out)


def chain_apply_rows(matrix, polys):
    """The matrix action on polynomials as one :func:`chain_combine` per row."""
    return [chain_combine(row, polys) for row in matrix.data]


def half_step(spec, point):
    """(up, down, 1 / (x(up) - x(down))) in field arithmetic: the
    denominator 2s + beta, 2is or i, tested for zero and inverted."""
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


def axis_entry(lattice, s, l):
    """S D (l = 1) or D^2 (l = 2) in one variable at the coordinate s as
    ``(den, {o: (A, B)}, {o: coordinate})``: the field weights of the
    offsets o = 1, 0, -1, then written over their common denominator by
    ``integer_parts``, zero weights dropped.  The inner denominators at
    s + 1/2 and s - 1/2 are tested first, then D^2's outer one at s."""
    up, down = shifted_points(lattice, s)
    up_up, _, inv_up = half_step(lattice, up)
    down_down, inv_down = half_step(lattice, down)[1:]
    if l == 2:
        outer = half_step(lattice, s)[2]
        w_up, w_down = outer * inv_up, -outer * inv_down
    else:
        w_up, w_down = Fraction(1, 2) * inv_up, Fraction(1, 2) * inv_down
    den, parts = integer_parts((w_up, w_down - w_up, -w_down))
    weights = {o: w for o, w in zip((1, 0, -1), parts) if w[0] or w[1]}
    return den, weights, {1: up_up, 0: s, -1: down_down}
