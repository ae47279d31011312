"""The lattices' monic bases F_n written out as monomial polynomials, one
node product after another: a reference for the tests, which no proof path
needs (``fbasis.u_blocks`` reads the top blocks off the nodes instead)."""

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
