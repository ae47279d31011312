"""Three-term-recurrence machinery in any number of variables: each degree-n
vector, block and label reads its slots from :func:`fbasis.graded`; only the
printed closed forms (:func:`sn_tn`, :func:`leading_matrix`) are bivariate.

The vector recurrence  x_j P_n = A_{n,j} P_{n+1} + B_{n,j} P_n + C_{n,j} P_{n-1}
is computed once, for the monic family Phat_n (G_{n,n} = I), driven by its
expansion matrices G_{n,n-1}, G_{n,n-2} on the monomials, read straight
from the equation's S_n / T_n on the monomials:

    G_{n,n-1} = S_n Z_{n-1}^{-1}(lambda_n),
    G_{n,n-2} = (T_n + G_{n,n-1} S_{n-1}) Z_{n-2}^{-1}(lambda_n),
    Z_k(lambda_n) = (lambda_k - lambda_n) I.

:class:`GChain` builds every block in one loop over the degree, and each
spec keeps one chain (:func:`monic_chain`) for every call that reads it.
A, B and C are one formula each, a term absent where its G block would lie
below G_{k,0}, with no inverse.  Since A_{n,j} = L_{n,j}, each step of
:func:`generate` reads Phat_{n+1} off the stacked rows, one slot per row,
with no elimination (:func:`_read_step`), and the chain keeps
Phat_0..Phat_k as far as its steps have run, so each step runs once per
chain, whichever leading asks.  The family leading is one change
of basis, P_n = Lambda_n Phat_n with Lambda_n = :func:`leading_matrix` at
degree n: its blocks are the monic ones conjugated
(:func:`recurrence_blocks`), its vectors Lambda_n Phat_n (:func:`generate`),
and the connection P_n = C_n Pbar_n of two families follows with
C_n = Lambda_n Lambdabar_n^{-1} (:func:`connection`).

S_n and T_n come in two independent ways: the printed closed forms
(:func:`sn_tn`), and a derivation that substitutes the monomial expansion
into the divided-difference equation and reads off the blocks of degree
n - 1 and n - 2 (:func:`_phi_blocks`).  The derivation reads the table's
monomial images (:meth:`pdeverify.CoeffTable.images`), built by the tensor
rule in integers and no polynomial Horner per monomial.  The paper prints
the Racah families' blocks on the quadratic lattices' tensor F-basis: one
stated change of basis (:func:`_on_working_bases`) takes the monomial
blocks there (:func:`sn_tn_derived`).  The tests compare the two; the
derivation is also what arbitrates typos in the long printed entries.
A, B and C read L_{n,j} as a column placement (:func:`_gl`) or a row pick
(:func:`_lg`), so no matrix product multiplies by it.

The oracle side of every comparison, :func:`family_poly_vector`, samples
the family's members on the grid in integers (``families.family_grid``)
and interpolates them with no field value in between.
:func:`leading_matrix` builds each printed entry from integer Pochhammer
products, one Fraction per entry, and the rank conditions on A and C
count the pivots of a fraction-free elimination (:meth:`ExactMatrix.rank`).
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import comb, factorial

# pochhammer is bound here for the perfbench tracer, which patches it in every
# namespace that holds it and whose unit test checks this one
from .exactfield import GaussianRational, pochhammer, rising  # noqa: F401
from .families import (
    CDH,
    CH,
    CH_BAR,
    RACAH,
    RACAH_BAR,
    WILSON,
    WILSON_BAR,
    DegenerateParameterError,
    FamilySpec,
    base_family,
    check_lower,
    family_grid,
)
from .fbasis import (
    MONOMIAL,
    MPoly,
    graded,
    interpolate_parts_on_grid,
    l_columns,
    l_matrix,
    u_blocks,
)
from .matrix import ExactMatrix, check_invertible, exact_inverse
from .pdeverify import coefficients

II = GaussianRational(0, 1)

TTRR_FAMILIES = (RACAH, RACAH_BAR, WILSON, WILSON_BAR, CDH, CH, CH_BAR)


class PolyVector:
    """Column vector of same-total-degree polynomials, entry k at slot k of
    :func:`fbasis.graded`."""

    __slots__ = ("degree", "entries")

    def __init__(self, degree, entries):
        self.degree = degree
        self.entries = list(entries)
        if len(self.entries) != len(graded(degree, self.entries[0].nvars if self.entries else 1)):
            raise ValueError("polynomial vector has wrong length")

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, k):
        return self.entries[k]


# ---------------------------------------------------------------------------
# S_n / T_n by direct derivation from the equation
# ---------------------------------------------------------------------------

def working_bases(spec: FamilySpec):
    """Per-variable basis the paper prints the family's S_n / T_n in: the
    tensor F-basis for the quadratic-lattice families, the monomials for
    Wilson, continuous dual Hahn and continuous Hahn.  Every derivation is
    made on the monomials; :func:`_on_working_bases` takes it to this basis."""
    if base_family(spec.family) == RACAH:
        return spec.lattices()
    return (MONOMIAL,) * spec.nvars


def _phi_blocks(table, degree):
    """S_degree and T_degree on the monomials: the rows of
    (sum f_i E_i) X_degree, one image per slot of the degree
    (:meth:`pdeverify.CoeffTable.images`), split by the total degree of their
    terms.  No term may lie above the degree, and the block at the degree
    must be -lambda_degree I; S and T are the blocks one and two below it."""
    nvars = table.nvars
    slots = [graded(d, nvars) for d in (degree, degree - 1, degree - 2)]
    places = [{e: c for c, e in enumerate(cols)} for cols in slots]
    diag, sub1, sub2 = blocks = [ExactMatrix.zero(len(slots[0]), len(cols)) for cols in slots]
    images = table.images(slots[0])
    for k, e in enumerate(slots[0]):
        for exps, c in images[e].coeffs.items():
            drop = degree - sum(exps)
            if drop < 0:
                raise AssertionError("operator action raised the total degree")
            if drop <= 2:
                blocks[drop][k, places[drop][exps]] = c
    if diag != ExactMatrix.identity(diag.rows).scale(-table.eigenvalue(slots[0][0])):
        raise AssertionError(f"degree-{degree} block of the equation is not -lambda_n I")
    return sub1, sub2


def _on_working_bases(spec: FamilySpec, n, st, lam):
    """S_n and T_n on :func:`working_bases` from ``st(k)`` = (S_k, T_k) and
    ``lam[k]`` = lambda_k on the monomials.  With F^[n] = X_n + U1_n X_{n-1}
    + U2_n X_{n-2} + ... (:func:`fbasis.u_blocks`: U1_n holds h1 on each
    axis, U2_n h2 on each axis and h1 h1 on each pair of axes, where
    F_a = x^a + h1(a) x^(a-1) + h2(a) x^(a-2) + ...), the X_{n-1} and X_{n-2}
    blocks of the equation's action on F^[n] give

        S^F_n = S_n + (lambda_n - lambda_{n-1}) U1_n,
        T^F_n = T_n + U1_n S_{n-1} - S_n U1_{n-1}
                + (lambda_{n-1} - lambda_n) U1_n U1_{n-1} + (lambda_n - lambda_{n-2}) U2_n.

    On the monomials U = 0, so the blocks pass through as they are."""
    bases = working_bases(spec)
    sn, tn = st(n)
    if bases == (MONOMIAL,) * spec.nvars:
        return sn, tn
    u1, u2 = u_blocks(bases, n)
    sf = sn + u1.scale(lam[n] - lam[n - 1])
    if n < 2:
        return sf, tn
    v1 = u_blocks(bases, n - 1)[0]
    tf = tn + u1 * st(n - 1)[0] - sn * v1 + (u1 * v1).scale(lam[n - 1] - lam[n])
    return sf, tf + u2.scale(lam[n] - lam[n - 2])


def _require_recurrence(spec: FamilySpec):
    if spec.family not in TTRR_FAMILIES:
        raise ValueError(f"no recurrence machinery for family {spec.family!r}")


def _require_degree(n):
    if n < 0:
        raise ValueError(f"negative degree {n}")


def sn_tn_derived(spec: FamilySpec, n, table=None):
    """S_n and T_n on the basis the paper prints them in (:func:`working_bases`):
    derived on the monomials (:func:`_phi_blocks`, at n - 1 too on the
    F-basis) and taken there by :func:`_on_working_bases`."""
    _require_recurrence(spec)
    if table is None:
        table = coefficients(spec)
    lam = [table.eigenvalue(graded(k, table.nvars)[0]) for k in range(n + 1)]
    return _on_working_bases(spec, n, lambda k: _phi_blocks(table, k), lam)


# ---------------------------------------------------------------------------
# printed closed forms for S_n / T_n
# ---------------------------------------------------------------------------

def sn_tn(family, params, n):
    """The printed closed-form S_n ((n+1) x n) and T_n ((n+1) x (n-1))."""
    if n < 1:
        raise ValueError("S_n needs n >= 1")
    skk, sk1k, tkk, tk1k, tk2k = _ST_ENTRIES[base_family(family)]
    s = ExactMatrix.zero(n + 1, n)
    for k in range(1, n + 1):
        s[k - 1, k - 1] = skk(params, n, k)
        s[k, k - 1] = sk1k(params, n, k)
    t = ExactMatrix.zero(n + 1, max(n - 1, 0))
    for k in range(1, n):
        t[k - 1, k - 1] = tkk(params, n, k)
        t[k, k - 1] = tk1k(params, n, k)
        t[k + 1, k - 1] = tk2k(params, n, k)
    return s, t


def _racah_skk(p, n, k):
    b0, b1, b2, b3, N = (p[x] for x in ("beta0", "beta1", "beta2", "beta3", "N"))
    return -Fraction(1, 16) * (k - n - 1) * (
        -b3
        + 8 * b1 * (2 * (k + n - k * n + N * N - 1) + b1 * (n - 1))
        + b0
        * (
            -4 * b1 * b1
            + 8 * b1 * (k - n)
            - 4 * (k - 3 * n) * (k + n)
            + 16 * b3 * (n - N - 1)
            - 32 * n
            - 16 * N * N
            + 17
        )
        + 16 * N * N * (n - k)
        + 4 * b3 * (b1 - k + n) * (b1 - k - 3 * n + 4 * N + 4)
        - 2 * (n - 1) * (-4 * (k - 2) * k + 4 * (n - 2) * n + 1)
    )


def _racah_sk1k(p, n, k):
    b0, b1, b2, b3, N = (p[x] for x in ("beta0", "beta1", "beta2", "beta3", "N"))
    return Fraction(1, 16) * k * (
        -13 * b3
        + 4
        * b3
        * (
            k * k
            + b2 * (b2 - 2 * k + 4 * N + 2)
            - 2 * k * (2 * N + 1)
            - 4 * (n * n - 2 * n * (N + 1) + N)
        )
        + 8 * b2 * (2 * (-k * n + k + (n - 1) * n + N * N) + b2 * (n - 1))
        + b0
        * (
            -4 * b2 * b2
            + 8 * b2 * (k - 2 * n + 1)
            - 4 * k * (k - 4 * n + 2)
            + 16 * b3 * (n - N - 1)
            - 16 * n
            - 16 * N * N
            + 13
        )
        - 16 * N * N * (k - 2 * n + 1)
        + 2 * (n - 1) * (4 * k * (k - 2 * n) + 8 * n - 5)
    )


def _racah_tkk(p, n, k):
    b0, b1, b3 = p["beta0"], p["beta1"], p["beta3"]
    N = p["N"]
    return -Fraction(1, 256) * (n - k) * (n - k + 1) * (
        (-2 * b1 + 2 * k - 2 * n + 1)
        * (4 * b0 - 2 * b1 + 2 * k - 2 * n + 1)
        * (-2 * b1 + 2 * k + 2 * n - 4 * N - 5)
        * (-2 * b1 + 4 * b3 + 2 * k + 2 * n + 4 * N - 5)
    )


def _racah_tk2k(p, n, k):
    b0, b2, b3 = p["beta0"], p["beta2"], p["beta3"]
    N = p["N"]
    return -Fraction(1, 256) * k * (k + 1) * (
        (-2 * b2 + 2 * k - 4 * n + 5)
        * (4 * b0 - 2 * b2 + 2 * k - 4 * n + 5)
        * (-2 * b2 + 2 * k - 4 * N - 1)
        * (-2 * b2 + 4 * b3 + 2 * k + 4 * N - 1)
    )


def _racah_tk1k(p, n, k):
    b0, b1, b2, b3, N = (p[x] for x in ("beta0", "beta1", "beta2", "beta3", "N"))
    return Fraction(1, 128) * k * (k - n) * (
        -160 * b3
        + 8
        * b1
        * (
            8 * b2 * (k * k - k * n + b3 * (k - 2 * N - 1) - 2 * N * N + 1)
            - 4 * b2 * b2 * (b3 + k + n - 2)
            + b3 * (-4 * k * (k - 4 * n + 4) - 16 * n * N - 8 * n + 16 * N + 5)
            + k * (-4 * k * (k - 3 * n + 2) - 16 * n + 13)
            - 16 * n * N * N
            + 5 * n
            + 16 * N * N
            - 2
        )
        + 4
        * b2
        * (
            2
            * (
                -4 * k ** 3
                + 8 * k * k
                + k * (4 * n * (3 * n - 8) + 16 * N * N + 13)
                - 2 * (n - 1) * (4 * (n - 2) * n + 8 * N * N + 1)
            )
            + b2 * (8 * k * n + 4 * (k - 4) * k - 12 * n * n + 32 * n - 21)
        )
        + 8
        * b0
        * (
            -26 * b3
            + 4 * k ** 3
            + b2
            * (
                -4 * k * k
                - 8 * k * (n - 2)
                + 4 * b2 * (2 * n - 3)
                + 12 * (n - 2) * n
                + 16 * N * N
                + 5
            )
            + 4
            * b3
            * (
                2 * k * k
                - 2 * k * (n + 2 * N)
                + b2 * (b2 - 2 * k + 4 * N + 2)
                + n * (8 * N - 3 * n + 10)
                - 8 * N
            )
            - 8 * k * k
            + 4 * b1 * b1 * (b3 - b2 + k - 1)
            - 12 * k * n * n
            - 8 * b1 * (-b2 + b3 + k - 1) * (k - n + 1)
            - 16 * N * N * (k - 2 * n + 2)
            + 32 * k * n
            - 13 * k
            + 12 * n * n
            - 34 * n
            + 20
        )
        + 8
        * b3
        * (
            4 * k ** 3
            - 4 * k * k * (3 * n + 2 * N - 2)
            - 4 * b2 * (k - n + 1) * (-b2 + 2 * k - 4 * N - 2)
            + k * (32 * (n - 1) * N + 16 * n - 13)
            + n * (4 * n * (2 * n - 6 * N - 9) + 48 * N + 47)
            - 26 * N
        )
        + 4
        * (
            4 * k ** 4
            - 8 * k ** 3 * n
            - 2 * k * k * (6 * (n - 4) * n + 8 * N * N + 13)
            + 2 * k * (32 * (n - 1) * N * N + n * (8 * (n - 3) * n + 13))
            + n * ((63 - 16 * n) * n - 48 * (n - 2) * N * N)
        )
        + 4
        * b1
        * b1
        * (
            4 * b2 * b2
            - 8 * b2 * (k - 2 * n + 2)
            + 4 * k * (k - 4 * n + 4)
            + 8 * b3 * (-2 * n + 2 * N + 3)
            + 16 * n
            + 16 * N * N
            - 21
        )
        - 304 * n
        - 208 * N * N
        + 121
    )


def _wilson_skk(p, n, k):
    a, b, c, d, e2 = (p[x] for x in ("a", "b", "c", "d", "e2"))
    return Fraction(1, 6) * (-k + n + 1) * (
        6 * (k - 1) * (n - k) * (2 * a + 2 * b + c + d + 2 * e2 + 1)
        + (4 * k - 4 * n + 1) * (k - n) * (a + b + c + d + 2 * e2)
        + 6
        * (n - k)
        * (e2 * (2 * a + 2 * b + c + d + e2) + a * (b + c + d) + b * (c + d) + c * d)
        + 6 * (k - 1) * (a * (2 * b + c + d + 1) + 2 * e2 * (a + b) + b * (c + d + 1))
        + 6
        * (
            e2 * (a * (2 * b + c + d) + e2 * (a + b) + b * (c + d))
            + a * d * (b + c)
            + a * b * c
            + b * c * d
        )
        + 6 * (k - 2) * (k - 1) * (a + b)
        + 2 * (n - k) * (k * (2 * n - 5) + (n - 5) * n + 7)
    )


def _wilson_sk1k(p, n, k):
    a, b, c, d, e2 = (p[x] for x in ("a", "b", "c", "d", "e2"))
    return Fraction(1, 6) * k * (
        2
        * e2
        * (
            3 * a * (c + d + k - 1)
            + 3 * b * (c + d + k - 1)
            + 3 * e2 * (c + d + k - 1)
            + 6 * n * (c + d + k - 1)
            + 6 * c * d
            - 6 * c
            - 6 * d
            - 2 * k * k
            - 3 * k
            + 5
        )
        + a
        * (
            6 * b * (c + d + k - 1)
            + 6 * c * (d + n - 1)
            + 6 * n * (d + k - 1)
            - 6 * d
            - 2 * k * k
            - 3 * k
            + 5
        )
        + b * (6 * c * (d + n - 1) + 6 * d * (n - 1) - (k - 1) * (2 * k - 6 * n + 5))
        + 6 * n * n * (c + d + k - 1)
        - 2 * n * (-6 * c * (d - 1) + 6 * d + (k - 1) * (2 * k + 5))
        - (k + 1) * (2 * k * (c + d - 2) + 6 * c * d - 5 * c - 5 * d + 4)
    )


def _wilson_tkk(p, n, k):
    a, b, c, d, e2 = (p[x] for x in ("a", "b", "c", "d", "e2"))
    return Fraction(1, 180) * (n - k) * (-k + n + 1) * (
        6
        * (k - n + 1)
        * (4 * k * k + k * (5 - 8 * n) + n * (4 * n - 5) - 1)
        * (a + b + c + d + 2 * e2)
        - 60 * (k - 1) * (k - n) * (k - n + 1) * (2 * a + 2 * b + c + d + 2 * e2 + 1)
        + 30
        * (k - 1)
        * (4 * k - 4 * n + 1)
        * (a * (2 * b + c + d + 1) + 2 * e2 * (a + b) + b * (c + d + 1))
        - 60
        * (k - n)
        * (k - n + 1)
        * (e2 * (2 * a + 2 * b + c + d + e2) + a * (b + c + d) + b * (c + d) + c * d)
        - 30
        * (-4 * k + 4 * n - 1)
        * (
            e2 * (a * (2 * b + c + d) + e2 * (a + b) + b * (c + d))
            + a * d * (b + c)
            + a * b * c
            + b * c * d
        )
        - 180 * a * b * (k - 1) * (c + d + 2 * e2 + 1)
        - 180 * a * b * (c + e2) * (d + e2)
        + 30 * (k - 2) * (k - 1) * (a + b) * (4 * k - 4 * n + 1)
        - 180 * a * b * (k - 2) * (k - 1)
        - (k - n + 1)
        * (
            20 * k ** 3
            + 12 * k * k * (n - 14)
            + k * (205 - 24 * (n - 4) * n)
            + n * (-8 * (n - 9) * n - 193)
            - 18
        )
    )


def _wilson_tk1k(p, n, k):
    a, b, c, d, e2 = (p[x] for x in ("a", "b", "c", "d", "e2"))
    return Fraction(1, 18) * k * (n - k) * (
        6
        * e2
        * (
            -3 * e2 * (c + d + k - 1) * (a + b - k + n - 1)
            + a
            * (
                -6 * b * (c + d + k - 1)
                - 6 * n * (c + d + k - 1)
                - 6 * c * d
                + 9 * c
                + 9 * d
                + 2 * k * k
                + 6 * k
                - 8
            )
            + b
            * (
                -6 * n * (c + d + k - 1)
                - 6 * c * d
                + 9 * c
                + 9 * d
                + 2 * k * k
                + 6 * k
                - 8
            )
            + (k - n + 1)
            * (
                2 * c * (3 * d + k + 2 * n - 4)
                + 2 * d * (k + 2 * n - 4)
                + (k - 1) * (4 * n - 7)
            )
        )
        + 3
        * a
        * (
            -2 * b * (3 * k * (c + d - 2) + 6 * c * d - 6 * c - 6 * d + k * k + 5)
            - 6 * b * n * (c + d + k - 1)
            - 4 * n * n * (c + d + k - 1)
            + n
            * (
                -4 * k * (c + d)
                + 3 * c * (5 - 4 * d)
                + 15 * d
                + 13 * (k - 1)
            )
            + 6 * c * d * k
            + 12 * c * d
            + 4 * c * k * k
            - 10 * c
            + 4 * d * k * k
            - 10 * d
            + 2 * k ** 3
            - 5 * k * k
            - 5 * k
            + 8
        )
        + 3
        * b
        * (
            c * (6 * d * (k - 2 * n + 2) + 4 * k * k - 4 * k * n + (15 - 4 * n) * n - 10)
            + d * (4 * k * k - 4 * k * n + (15 - 4 * n) * n - 10)
            + (k - 1) * (k * (2 * k - 3) + (13 - 4 * n) * n - 8)
        )
        - (k - n + 1)
        * (
            3
            * c
            * (
                2 * d * (k - 4 * n + 5)
                - 4 * k * n
                + k * (2 * k + 3)
                - 2 * n * n
                + 10 * n
                - 8
            )
            + 3 * d * (-4 * k * n + k * (2 * k + 3) - 2 * n * n + 10 * n - 8)
            + (k - 1) * (4 * k * k - 4 * k * n - 6 * n * n + 26 * n - 19)
        )
    )


def _wilson_tk2k(p, n, k):
    a, b, c, d, e2 = (p[x] for x in ("a", "b", "c", "d", "e2"))
    return Fraction(1, 180) * k * (k + 1) * (
        180 * c * d * (k - n + 1) * (a + b + 2 * e2 + 1)
        + 60 * (k - 1) * k * (k - n + 1) * (a + b + 2 * c + 2 * d + 2 * e2 + 1)
        + 30
        * (4 * k - 1)
        * (k - n + 1)
        * (c * (a + b + 2 * d + 1) + d * (a + b + 1) + 2 * e2 * (c + d))
        - 6 * (k - 1) * (k * (4 * k - 5) - 1) * (a + b + c + d + 2 * e2)
        - 60
        * (k - 1)
        * k
        * (e2 * (a + b + 2 * (c + d) + e2) + a * (b + c + d) + b * (c + d) + c * d)
        - 30
        * (4 * k - 1)
        * (
            e2 * (d * (a + b + 2 * c) + c * (a + b) + e2 * (c + d))
            + a * d * (b + c)
            + a * b * c
            + b * c * d
        )
        - 180 * c * d * (a + e2) * (b + e2)
        - 180 * c * d * (k - n + 1) * (k - n + 2)
        - 30 * (4 * k - 1) * (c + d) * (k - n + 1) * (k - n + 2)
        - (k - 1)
        * (
            20 * k ** 3
            + 24 * k * k * (7 - 3 * n)
            + 5 * k * (12 * (n - 4) * n + 41)
            - 12 * n
            + 18
        )
    )


def _cdh_skk(p, n, k):
    a, b, c, e2 = (p[x] for x in ("a", "b", "c", "e2"))
    return -Fraction(1, 6) * (k - n - 1) * (
        6 * e2 * (2 * a + b + c + e2 + 2 * n - 2)
        + 6 * a * (b + c + k + n - 2)
        + 6 * b * (c + n - 1)
        + n * (6 * c + 4 * k - 13)
        - 6 * c
        - 2 * k * k
        + k
        + 4 * n * n
        + 6
    )


def _cdh_sk1k(p, n, k):
    a, b, c, e2 = (p[x] for x in ("a", "b", "c", "e2"))
    return Fraction(1, 6) * k * (
        6 * a * (b + c + k - 1)
        + 6 * e2 * (b + c + k - 1)
        + 6 * b * (c + n - 1)
        + 6 * n * (c + k - 1)
        - 6 * c
        - 2 * k * k
        - 3 * k
        + 5
    )


def _cdh_tkk(p, n, k):
    a, b, c, e2 = (p[x] for x in ("a", "b", "c", "e2"))
    return Fraction(1, 30) * (n - k) * (n - k + 1) * (
        -10 * (k - n) * (k - n + 1) * (a + b + c + 2 * e2)
        + 5 * (k - 1) * (4 * k - 4 * n + 1) * (2 * a + b + c + 2 * e2 + 1)
        - 5 * (-4 * k + 4 * n - 1) * (e2 * (2 * a + b + c + e2) + a * (b + c) + b * c)
        - 30 * a * (k - 1) * (b + c + 2 * e2 + 1)
        - 30 * a * (b + e2) * (c + e2)
        - 30 * a * (k - 2) * (k - 1)
        + 4 * k ** 3
        + 8 * k * k * n
        - 46 * k * k
        - 8 * k * n * n
        + 22 * k * n
        + 49 * k
        - 4 * n ** 3
        + 29 * n * n
        - 64 * n
        + 9
    )


def _cdh_tk1k(p, n, k):
    a, b, c, e2 = (p[x] for x in ("a", "b", "c", "e2"))
    return -Fraction(1, 6) * k * (k - n) * (
        2
        * e2
        * (
            -6 * a * (b + c + k - 1)
            - 3 * e2 * (b + c + k - 1)
            - 6 * n * (b + c + k - 1)
            - 6 * b * c
            + 9 * b
            + 9 * c
            + 2 * k * k
            + 6 * k
            - 8
        )
        - 2 * a * (3 * k * (b + c - 2) + 6 * b * c - 6 * b - 6 * c + k * k + 5)
        - 6 * a * n * (b + c + k - 1)
        - 4 * n * n * (b + c + k - 1)
        + n * (-4 * k * (b + c) + 3 * b * (5 - 4 * c) + 15 * c + 13 * (k - 1))
        + 6 * b * c * k
        + 12 * b * c
        + 4 * b * k * k
        - 10 * b
        + 4 * c * k * k
        - 10 * c
        + 2 * k ** 3
        - 5 * k * k
        - 5 * k
        + 8
    )


def _cdh_tk2k(p, n, k):
    a, b, c, e2 = (p[x] for x in ("a", "b", "c", "e2"))
    return Fraction(1, 30) * k * (k + 1) * (
        -10 * (k - 1) * k * (a + b + c + e2)
        - 5 * (4 * k - 1) * (a * (b + c) + e2 * (b + c) + b * c)
        - 30 * b * c * (a + e2)
        + 30 * b * c * (k - n + 1)
        + 5 * (4 * k - 1) * (b + c) * (k - n + 1)
        + (k - 1) * (k * (6 * k - 10 * n + 15) + 1)
    )


def _ch_skk(p, n, k):
    a1, e2, a3, b1, b3 = (p[x] for x in ("a1", "e2", "a3", "b1", "b3"))
    return Fraction(1, 2) * II * (n - k + 1) * (
        2 * (a1 * (b3 + e2) - b1 * (a3 + e2))
        + (a1 - a3 - b1 + b3) * (n - k)
        + 2 * (k - 1) * (a1 - b1)
    )


def _ch_sk1k(p, n, k):
    a1, e2, a3, b1, b3 = (p[x] for x in ("a1", "e2", "a3", "b1", "b3"))
    return Fraction(1, 2) * II * k * (
        a3 * (-2 * b1 - 2 * e2 + k - 2 * n + 1)
        + a1 * (2 * b3 + k - 1)
        + 2 * b3 * e2
        - b1 * k
        - b3 * k
        + 2 * b3 * n
        + b1
        - b3
    )


def _ch_tkk(p, n, k):
    a1, e2, a3, b1, b3 = (p[x] for x in ("a1", "e2", "a3", "b1", "b3"))
    return Fraction(1, 12) * (n - k) * (n - k + 1) * (
        -2 * (k - n + 1) * (a1 + a3 + b1 + b3 + 2 * e2)
        + 6 * (b1 * (a3 + e2) + a1 * (b3 + e2))
        + 6 * (k - 1) * (a1 + b1)
        - (k - n + 1) * (3 * k + n - 6)
    )


def _ch_tk1k(p, n, k):
    a1, e2, a3, b1, b3 = (p[x] for x in ("a1", "e2", "a3", "b1", "b3"))
    return Fraction(1, 2) * k * (n - k) * (
        (a3 + b3) * (n - k - 1)
        + (k - 1) * (a1 + b1)
        + 2 * (a3 * b1 + a1 * b3)
        + (k - 1) * (n - k - 1)
    )


def _ch_tk2k(p, n, k):
    # the printed "(k-1)(4n-3k+-6)" is taken as (4n-3k-6); the derivation
    # route confirms this reading at every tested order
    a1, e2, a3, b1, b3 = (p[x] for x in ("a1", "e2", "a3", "b1", "b3"))
    return Fraction(1, 12) * k * (k + 1) * (
        2 * (k - 1) * (a1 + a3 + b1 + b3 + 2 * e2)
        + 6 * (b3 * (a1 + e2) + a3 * (b1 + e2))
        - 6 * (a3 + b3) * (k - n + 1)
        + (k - 1) * (4 * n - 3 * k - 6)
    )


_ST_ENTRIES = {
    RACAH: (_racah_skk, _racah_sk1k, _racah_tkk, _racah_tk1k, _racah_tk2k),
    WILSON: (_wilson_skk, _wilson_sk1k, _wilson_tkk, _wilson_tk1k, _wilson_tk2k),
    CDH: (_cdh_skk, _cdh_sk1k, _cdh_tkk, _cdh_tk1k, _cdh_tk2k),
    CH: (_ch_skk, _ch_sk1k, _ch_tkk, _ch_tk1k, _ch_tk2k),
}


# ---------------------------------------------------------------------------
# G matrices
# ---------------------------------------------------------------------------

class GChain:
    """The monic chain: G_{k,k} = I, G_{k,k-1} and G_{k,k-2} for k = 0..top,
    in one pass over k, each block read from S_k / T_k derived on the
    monomials (``st``), with Z_l(lambda_k) = (lambda_l - lambda_k) I:

        G_{k,k-1} = S_k Z_{k-1}^{-1}(lambda_k),
        G_{k,k-2} = (T_k + G_{k,k-1} S_{k-1}) Z_{k-2}^{-1}(lambda_k).

    ``lam`` holds lambda_0..lambda_top, each read at the first slot of its
    degree.  The family-leading blocks are these in the basis
    P_n = Lambda_n Phat_n (:func:`recurrence_blocks`).  The chain
    :func:`generate` reads is the one its spec keeps (:func:`monic_chain`).
    It also keeps the monic vectors Phat_0..Phat_k (``_vectors``, each a
    list of entries) as far as :func:`generate` has run its steps, so each
    step runs once per chain; it starts with Phat_0 = (1).  A negative top
    raises ValueError.
    """

    def __init__(self, spec: FamilySpec, top):
        _require_recurrence(spec)
        _require_degree(top)
        self.top = top
        self.table = table = coefficients(spec)
        self.st = {k: _phi_blocks(table, k) for k in range(1, top + 1)}
        self.lam = lam = [table.eigenvalue(graded(k, table.nvars)[0]) for k in range(top + 1)]
        self._blocks = blocks = {}  # (k, j) -> G_{k,j}
        for k in range(top + 1):
            blocks[k, k] = ExactMatrix.identity(len(graded(k, table.nvars)))
            for m in (k - 1, k - 2):
                if m >= 0 and lam[m] == lam[k]:
                    raise DegenerateParameterError(f"eigenvalue collision lambda_{k} = lambda_{m}")
            if k == 0:
                continue
            sk, tk = self.st[k]
            g1 = blocks[k, k - 1] = sk.scale(1 / (lam[k - 1] - lam[k]))
            if k >= 2:
                blocks[k, k - 2] = (tk + g1 * self.st[k - 1][0]).scale(1 / (lam[k - 2] - lam[k]))
        self._vectors = [[MPoly.const(table.nvars, Fraction(1))]]

    def g(self, k, j):
        if (k, j) not in self._blocks:
            raise ValueError(f"G_{{{k},{j}}} is not tracked: the chain holds j = k, k-1, k-2 >= 0")
        return self._blocks[k, j]


def monic_chain(spec: FamilySpec, top) -> GChain:
    """The monic chain the spec keeps (``FamilySpec._chain``) when its top
    is at least ``top``; otherwise a new ``GChain(spec, top)``, which the
    spec keeps in its place.  So the two leadings of one spec, and every
    ``upto`` up to the top, share one chain, its table, its univariate
    images and its kept vectors Phat_0..Phat_k, each step run once.  A
    build that raises keeps nothing: a spec meets each error of a chain to
    ``top`` exactly when a fresh spec would, since a kept chain reaching
    ``top`` passed every check up to it.  A negative top raises
    ValueError, as ``GChain`` does."""
    chain = spec._chain
    if top < 0 or chain is None or chain.top < top:
        chain = GChain(spec, top)
        # the one slot of the immutable spec filled after it is built
        object.__setattr__(spec, "_chain", chain)
    return chain


def _gl(chain, n, m, j):
    """G_{n,m} L_{m,j}, zero when m < 0: no G block lies below G_{n,0}.
    L_{m,j} moves slot e of degree m to slot e + unit_j of degree m + 1
    (:func:`fbasis.l_columns`), so the product places G_{n,m}'s columns and
    does no arithmetic; every other entry is Fraction(0)."""
    nvars = chain.table.nvars
    out = ExactMatrix.zero(len(graded(n, nvars)), len(graded(m + 1, nvars)))
    if m >= 0:
        columns = l_columns(m, j, nvars)
        for row, g_row in zip(out.data, chain.g(n, m).data):
            for c, x in zip(columns, g_row):
                if x:
                    row[c] = x
    return out


def _lg(chain, n, m, j):
    """L_{n,j} G_{n+1,m}: row e + unit_j of G_{n+1,m} for each slot e of
    degree n, so the product picks rows and does no arithmetic."""
    g = chain.g(n + 1, m)
    return ExactMatrix([g.data[c] for c in l_columns(n, j, chain.table.nvars)], g.cols)


def abc_matrices(chain: GChain, n, j):
    """A_{n,j}, B_{n,j}, C_{n,j} (None for n = 0) of the monic family, from
    the top blocks of x_j Phat_n with G_{k,k} = I, so no inverse:

        A = L_{n,j},
        B = G_{n,n-1} L_{n-1,j} - L_{n,j} G_{n+1,n},
        C = G_{n,n-2} L_{n-2,j} - L_{n,j} G_{n+1,n-1} - B G_{n,n-1}.
    """
    nvars = chain.table.nvars
    if not 1 <= j <= nvars:
        raise ValueError(f"j must be 1..{nvars}")
    a = l_matrix(n, j, nvars)
    b = _gl(chain, n, n - 1, j) - _lg(chain, n, n, j)
    if n == 0:
        return a, b, None
    return a, b, _gl(chain, n, n - 2, j) - _lg(chain, n, n - 1, j) - b * chain.g(n, n - 1)


def _check_ranks(a_j, c_j, n):
    """Each A_{n,j} (r_n x r_{n+1}) and C_{n,j} (r_n x r_{n-1}) of full rank,
    the A stacked of rank r_{n+1} and the C side by side of rank r_n."""
    if any(a.rank() != a.rows for a in a_j):
        raise DegenerateParameterError(f"rank A_{n},j != {a_j[0].rows}")
    if reduce(ExactMatrix.vstack, a_j).rank() != a_j[0].cols:
        raise DegenerateParameterError(f"joint rank A_{n} != {a_j[0].cols}")
    if n >= 1 and any(c.rank() != c.cols for c in c_j):
        raise DegenerateParameterError(f"rank C_{n},j != {c_j[0].cols}")
    if n >= 1 and reduce(ExactMatrix.hstack, c_j).rank() != c_j[0].rows:
        raise DegenerateParameterError(f"joint rank C_{n} != {c_j[0].rows}")


def leading_matrices(spec: FamilySpec, top, leading):
    """Lambda_0..Lambda_top (:func:`leading_matrix`) for the family leading,
    None for the monic one.  Every recurrence is computed monic; the
    family's vectors are P_n = Lambda_n Phat_n, so its chain, step and rank
    checks are the monic ones once each Lambda_n is invertible.

    A degenerate run names the first failure in this order: the family
    guard, the leading name, Lambda_0..Lambda_top with their denominator
    checks (here), the monic chain with its S_k / T_k and eigenvalue
    collisions (:class:`GChain`, through :func:`monic_chain`), and then per
    step n, Lambda_{n+1} invertible before the step's rank checks and its
    consistency check.  A negative top raises ValueError after the leading
    name."""
    _require_recurrence(spec)
    if leading not in ("monic", "family"):
        raise ValueError(f"leading must be 'monic' or 'family', not {leading!r}")
    _require_degree(top)
    if leading == "monic":
        return None
    return [leading_matrix(spec.family, spec.params, k) for k in range(top + 1)]


def recurrence_blocks(chain: GChain, n, lead=None):
    """(G, ABC) at degree n: G holds G_{n,n}, G_{n,n-1}, G_{n,n-2} down to
    G_{n,0}, and ABC the (A_{n,j}, B_{n,j}, C_{n,j}) for j = 1..nvars, of the
    monic chain.  Given ``lead`` = Lambda_0..Lambda_{n+1}
    (:func:`leading_matrices`), they are the family leading's instead, the
    monic blocks in the basis P_n = Lambda_n Phat_n:

        Lambda_n G_{n,m},  Lambda_n A Lambda_{n+1}^{-1},
        Lambda_n B Lambda_n^{-1},  Lambda_n C Lambda_{n-1}^{-1},

    with Lambda_{n+1}, Lambda_n and Lambda_{n-1} inverted in that order."""
    g = [chain.g(n, m) for m in (n, n - 1, n - 2) if m >= 0]
    abc = [abc_matrices(chain, n, j) for j in range(1, chain.table.nvars + 1)]
    if lead is None:
        return g, abc
    inv = {k: exact_inverse(lead[k]) for k in (n + 1, n, n - 1) if k >= 0}
    g = [lead[n]] + [lead[n] * m for m in g[1:]]
    abc = [
        (
            lead[n] * a * inv[n + 1],
            lead[n] * b * inv[n],
            None if c is None else lead[n] * c * inv[n - 1],
        )
        for a, b, c in abc
    ]
    return g, abc


def _read_step(n, nvars, rhs):
    """Phat_{n+1} from the stacked monic step L_{n,j} Phat_{n+1} = rhs_j,
    j = 1..nvars, with no elimination: the monic A_{n,j} is L_{n,j}, so
    stacked row (j, e) reaches only slot e + unit_j of degree n + 1
    (:func:`fbasis.l_columns`).  Each slot takes the right-hand side of the
    first row that reaches it, and every other row that reaches it must
    equal that exactly; one that does not is a failed consistency check (an
    AssertionError), not a least-squares compromise.  Every slot is
    reached: x^e' with e'_j >= 1 is x_j x^(e' - unit_j)."""
    out = [None] * len(graded(n + 1, nvars))
    slots = (c for j in range(1, nvars + 1) for c in l_columns(n, j, nvars))
    for c, value in zip(slots, rhs, strict=True):
        if out[c] is None:
            out[c] = value
        elif out[c] != value:
            raise AssertionError(f"recurrence step to degree {n + 1}: "
                                 "inconsistent stacked system: nonzero residual row")
    assert None not in out, f"a slot of degree {n + 1} that no stacked row reaches"
    return out


def _step(chain: GChain, n):
    """Phat_{n+1} read off A_{n,j} Phat_{n+1} = x_j Phat_n - B_{n,j} Phat_n
    - C_{n,j} Phat_{n-1} of the monic family, from the chain's kept Phat_n
    and Phat_{n-1}, the variables' systems stacked (:func:`_read_step`).  The
    rank checks come first, so a degenerate A still raises
    DegenerateParameterError.  Variable j's right-hand sides are
    [I | -B_{n,j} | -C_{n,j}] applied to one shared list, x_j Phat_n (a shift
    of exponents), Phat_n and Phat_{n-1}, by one
    :meth:`MPoly.combine_rows`."""
    nvars = chain.table.nvars
    a_j, b_j, c_j = zip(*(abc_matrices(chain, n, j) for j in range(1, nvars + 1)))
    _check_ranks(a_j, c_j, n)
    pn = chain._vectors[n]
    shared = pn + (chain._vectors[n - 1] if n else [])
    unit = ExactMatrix.identity(len(pn))
    rhs = [
        entry
        for var, (b, c) in enumerate(zip(b_j, c_j))
        for entry in unit.hstack(-b if c is None else (-b).hstack(-c)).apply_rows(
            [p.mul_var(var) for p in pn] + shared
        )
    ]
    return _read_step(n, nvars, rhs)


def generate(spec: FamilySpec, upto, leading="monic"):
    """Polynomial vectors P_0..P_upto generated from the recurrences.  Both
    leadings read the chain the spec keeps (:func:`monic_chain`) and its
    kept Phat_0..Phat_k: step n (:func:`_step`) runs only when Phat_{n+1}
    is not kept yet, and its result is kept once the step passes, so a step
    that raises keeps nothing.  An inconsistent step raises AssertionError,
    which the CLI reports with exit 3.  The family leading checks
    Lambda_{n+1} invertible before step n, kept or not, so every error comes
    in the order :func:`leading_matrices` gives.  The monic leading returns
    new copies of Phat_0..Phat_upto, the family leading
    P_n = Lambda_n Phat_n (:func:`leading_matrices`); none of the chain's
    blocks or vectors is returned.  A negative ``upto`` raises ValueError."""
    lead = leading_matrices(spec, upto, leading)
    chain = monic_chain(spec, upto)
    kept = chain._vectors
    for n in range(upto):
        if lead is not None:
            # raises on a singular Lambda_{n+1}, naming its first column without a pivot
            check_invertible(lead[n + 1])
        if len(kept) == n + 1:
            kept.append(_step(chain, n))
    if lead is None:
        # a new dict per entry, so a caller's edit reaches no kept vector
        return [
            PolyVector(n, [MPoly._of(p.nvars, dict(p.coeffs)) for p in kept[n]])
            for n in range(upto + 1)
        ]
    return [PolyVector(n, g.apply_rows(v)) for n, (g, v) in enumerate(zip(lead, kept))]


# ---------------------------------------------------------------------------
# leading matrices
# ---------------------------------------------------------------------------

def _entry(num, den, ups, downs=()):
    """num / den * prod (c + m)_k over the (c, m, k) of ``ups``, over
    prod (c + m)_k over those of ``downs``, as one Fraction.  With c an int
    or a Fraction C / D and m an int, (c + m)_k is the integer
    ``rising(C + mD, D, k)`` over D^k, so the products stay in integers."""
    for c, m, k in ups:
        step = c.denominator
        num, den = num * rising(c.numerator + m * step, step, k), den * step ** k
    for c, m, k in downs:
        step = c.denominator
        num, den = num * step ** k, den * rising(c.numerator + m * step, step, k)
    return Fraction(num, den)


def _sign(k):
    return -1 if k % 2 else 1


def leading_matrix(family, params, n) -> ExactMatrix:
    """The (n+1) x (n+1) leading-coefficient matrix G_{n,n} of the family,
    from the printed closed forms (with the index misprints resolved in
    favour of the interpolation oracle).  Each entry is a sign times a
    binomial times Pochhammer symbols (c + m)_k, c a parameter combination
    and m an integer, over a factorial and one more Pochhammer symbol for
    Racah; :func:`_entry` builds each as one Fraction.  A negative degree
    raises ValueError."""
    _require_degree(n)
    p = params
    out = ExactMatrix.zero(n + 1, n + 1)
    if family == RACAH:
        b0, b1, b2, b3 = p["beta0"], p["beta1"], p["beta2"], p["beta3"]
        check_lower([("beta1-beta0", b1 - b0)], n)
        c10, c30, c20 = b1 - b0, b3 - b0 - 1, b2 - b0 - 1
        for i in range(n + 1):
            for j in range(n + 1):
                out[i, j] = _entry(
                    _sign(i + n), factorial(n - j),
                    ((c10, 0, n - i), (c30, 2 * n - i, i), (0, i - n, n - j),
                     (c20, n - i, n - j)),
                    ((c10, 0, n - j),),
                )
    elif family == RACAH_BAR:
        b0, b1, b2, b3 = p["beta0"], p["beta1"], p["beta2"], p["beta3"]
        c23, c31, c30 = b2 - b3 + 1, b3 - b1 - 1, b3 - b0 - 1
        for i in range(n + 1):
            for j in range(i + 1):
                out[i, j] = _entry(
                    comb(i, j), 1, ((c23, -i, i - j), (c31, i, j), (c30, i + n, n - i))
                )
    elif family == WILSON:
        a, b, c, d, e2 = (p[x] for x in ("a", "b", "c", "d", "e2"))
        sig, ab, abe = a + b + c + d + 2 * e2 - 1, a + b, a + b + 2 * e2 - 1
        for r in range(n + 1):
            for s in range(r, n + 1):
                out[r, s] = _entry(
                    _sign(n - r - s) * comb(n - r, s - r), 1,
                    ((sig, 2 * n - r, r), (ab, n - s, s - r), (abe, n - r, n - s)),
                )
    elif family == WILSON_BAR:
        a, b, c, d, e2 = (p[x] for x in ("a", "b", "c", "d", "e2"))
        sig, cd, cde = a + b + c + d + 2 * e2 - 1, 1 - c - d, c + d + 2 * e2 - 1
        for r in range(n + 1):
            for s in range(r + 1):
                out[r, s] = _entry(
                    _sign(n) * comb(r, s), 1, ((cd, -r, r - s), (cde, r, s), (sig, r + n, n - r))
                )
    elif family == CDH:
        for r in range(n + 1):
            for s in range(r, n + 1):
                out[r, s] = Fraction(_sign(n - r - s) * comb(n - r, s - r))
    elif family == CH:
        a1, e2, a3, b1, b3 = (p[x] for x in ("a1", "e2", "a3", "b1", "b3"))
        sig, ab, abe = a1 + a3 + b1 + b3 + 2 * e2 - 1, a1 + b1, a1 + b1 + 2 * e2 - 1
        for r in range(n + 1):
            for s in range(r, n + 1):
                out[r, s] = _entry(
                    _sign(r - s) * comb(n - r, s - r), 1,
                    ((abe, n - r, n - s), (ab, n - s, s - r), (sig, 2 * n - r, r)),
                )
    elif family == CH_BAR:
        a1, e2, a3, b1, b3 = (p[x] for x in ("a1", "e2", "a3", "b1", "b3"))
        sig, ab, abe = a1 + a3 + b1 + b3 + 2 * e2 - 1, a3 + b3, a3 + b3 + 2 * e2 - 1
        for r in range(n + 1):
            for s in range(r + 1):
                out[r, s] = _entry(
                    _sign(r - s) * comb(r, s), 1, ((ab, s, r - s), (abe, r, s), (sig, r + n, n - r))
                )
    else:
        raise ValueError(f"no leading matrix for family {family!r}")
    return out


def family_poly_vector(spec: FamilySpec, n) -> PolyVector:
    """The family's degree-n vector interpolated into exact polynomials in
    the lattice variables (the oracle side of every TTRR comparison), on
    one node per axis more than degree n needs, so that a member of a
    higher total degree shows.  The nodes are read off the axes the spec
    keeps (``FamilySpec.grid_axes``), so the degrees of one spec examine
    each candidate coordinate once; the members are sampled in integers
    (``families.family_grid``) and interpolated from them.  A negative
    degree raises ValueError."""
    _require_degree(n)
    axes = spec.grid_axes(n + 2)
    entries = interpolate_parts_on_grid(
        spec.lattices(), axes, family_grid(spec, graded(n, spec.nvars), axes)
    )
    if any(poly.total_degree() > n for poly in entries):
        raise AssertionError("interpolated family entry exceeds total degree")
    return PolyVector(n, entries)


def leading_matrix_oracle(spec: FamilySpec, n) -> ExactMatrix:
    """Leading block of the interpolated family vector."""
    slots = graded(n, spec.nvars)
    return ExactMatrix([[poly.coeff(e) for e in slots] for poly in family_poly_vector(spec, n)])


# ---------------------------------------------------------------------------
# connection problem
# ---------------------------------------------------------------------------

def connection(g: ExactMatrix, gbar: ExactMatrix) -> ExactMatrix:
    """C with P_n = C Pbar_n, given the two leading matrices: the two families
    share one monic Phat_n (equal tables), so P_n = Lambda_n Phat_n and
    Pbar_n = Lambdabar_n Phat_n give C = Lambda_n Lambdabar_n^{-1}."""
    if g.rows != g.cols or gbar.rows != gbar.cols or g.rows != gbar.rows:
        raise ValueError("connection needs square matrices of equal size")
    return g * exact_inverse(gbar)
