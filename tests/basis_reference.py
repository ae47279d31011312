"""References for the tests, which no proof path needs: the lattices' monic
bases F_n written out as monomial polynomials, one node product after
another (``fbasis.u_blocks`` reads the top blocks off the nodes instead),
and polynomial combinations summed in field arithmetic, term by term
(``MPoly.combine_rows`` sums them in Gaussian integers instead)."""

from fractions import Fraction

from quadlattice.fbasis import MPoly


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
