"""Hypergeometric construction of the univariate, bivariate and trivariate
polynomial families, together with their derivative ladders.

Each bivariate family is a product of two univariate factors whose
parameters and arguments are coupled through the degrees; the exact
couplings implemented here are:

  racah      R_{n,m}(s,t)   = r_n(b1-b0-1, b2-b1-1, -t-1, b1+t; s)
                              * r_m(2n+b2-b0-1, b3-b2-1, n-N-1, n+b2+N; t-n)
  racah-bar  Rb_{n,m}(s,t)  = r_n(2m-b1+b3-1, b1-b0-1, m-N-1, m-N-b1; N-m-s)
                              * r_m(b3-b2-1, b2-b1-1, s-N-1, -b2-N-s; N-t)
  wilson     W_{n,m}(x,y)   = w_n(a, b, e2+iy, e2-iy; x)
                              * w_m(n+a+e2, n+b+e2, c, d; y)
  wilson-bar Wb_{n,m}(x,y)  = w_n(m+c+e2, m+d+e2, a, b; x)
                              * w_m(c, d, e2+ix, e2-ix; y)
  cdh        D_{n,m}(x,y)   = d_n(a, e2+iy, e2-iy; x) * d_m(n+a+e2, b, c; y)
  ch         H_{n,m}(x,y)   = h_n(a1, b1, e2-iy, e2+iy; x)
                              * h_m(n+a1+e2, n+b1+e2, b3, a3; y)
  ch-bar     Hb_{n,m}(x,y)  = h_n(m+e2+b3, m+e2+a3, a1, b1; x)
                              * h_m(b3, a3, e2-ix, e2+ix; y)
  ch-tri     three continuous Hahn factors chained through n, m, r.

``_couplings`` is the one definition of these couplings.  It also names
each factor's own coordinate (the kind's argument) and its coupled one (the
other coordinate the factor's parameters read, if any).  A ``FamilySpec``
is immutable: it hashes once and keeps the factors of each member it has
evaluated, every label-only part built once.

Every univariate factor is one cancellation-free kernel sum: the lower
Pochhammers are multiplied through, so the k-th term is H_k * T_k / k!
with H_k = prod (u_j)_k, the prefix products of the upper parameters, and
T_k = prod (l_j + k)_{n-k}, the suffix products of the lower tails (O(n)
multiplications).  The kernel works in integers: the uppers are written
over one common denominator and the lowers over another, each as an
integer pair (A, B), B = 0 for a real one, so the products are
Gaussian-integer products; each side is scaled so that term k is
H'_k * T'_k over the product of the two sides' denominators, and the sum
is one integer dot product.  Each kind's uppers and named lowers are
written once (``_KINDS``), and a ``_Factor`` holds the two sides and
their dot, the one place the continuous Hahn i^n is applied.

The split is what makes a member cheap.  In every coupling a factor's
upper parameters read only its own coordinate: where the coupled
coordinate enters an upper, it cancels (c + d = 2 e2 for the conjugate
pair e2 +- iy, gamma + delta = b1 - 1 for the Racah pair -t-1, b1+t).  Its
lower parameters read at most the coupled coordinate, never the own one.
So a member keeps, per factor, the upper vector of each own coordinate and
the lower vector of each coupled coordinate it has met, and a point is one
integer dot product per factor; a grid of |X| * |Y| points runs the kernel
|X| + |Y| times per factor.  The values are exactly those of the kernel at
the point's arguments, and a test checks the cancellation, not assumes it.
``family_grid`` is the one code that turns a member's factor vectors into
values.  It samples members on a tensor grid and stays in integers: each
factor's vectors of an axis are written over one denominator, and a member
comes back as the Gaussian-integer numerators of its values over one
denominator, which the interpolation oracle hands to ``fbasis`` as they
are and the residual sweeps dot with their stencils' integer weights.  For
the sweeps it defers its errors: a point it cannot sample holds a function
that raises there, so a sweep meets an error where a per-point evaluation
would.  Every single value is its one-point grid: ``_eval_cached``, behind
``family_function`` and ``eval_family``, reads it for the ladders and the
``eval`` command.  A lower vector is built only after ``check_lower`` has
formed every lower Pochhammer (l)_n with ``pochhammer`` and found none
vanishing; a degree-0 factor of a member is 1 and builds nothing.  The
univariate primaries ``racah_uni``, ``wilson_uni``, ``cdh_uni`` and
``ch_uni`` each build one ``_Factor`` at their arguments and read its
upper vector, lower vector and dot.  Every univariate factor has a second,
independent implementation used as a brute-force oracle by the tests: a
prefactor (from ``pochhammer``) times the plain series summed by running
term ratios in Fraction arithmetic, dividing by every lower parameter at
every term.  The kernel never calls ``pochhammer`` for a value, so the two
routes share no arithmetic beyond the parameters, and a slip in one does
not cancel.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, partial, reduce
from itertools import product
from math import factorial, lcm
from operator import mul
from types import MappingProxyType

from .exactfield import (
    GaussianRational,
    demote,
    from_parts,
    gauss,
    gdot,
    gmul,
    imag_part,
    integer_parts,
    pochhammer,
    rat,
    rat_str,
    times_i,
)
from .latticeops import linear, partial_D, quadratic, wilson_square

HALF = Fraction(1, 2)

# The bound of each family cache (the four primaries and ``_eval_cached``):
# a long run keeps at most this many values per cache, evicting the least
# recently used.  A member's factor keeps at most this many vectors per
# side, evicting the oldest, but the factors live on their spec, so this
# bounds the vectors per spec, label and factor side, not in all: a spec,
# and every vector it holds, lives while its caller or one of its values in
# ``_eval_cached`` refers to it.  ``_eval_cached`` holds the one-point reads
# of ``family_grid`` (the ladders, the ``eval`` command and the callers of
# ``family_function``); the residual sweeps and the interpolation oracle
# call ``family_grid`` directly, which fills none of these caches, only the
# member's factor vectors.  A benchmark job or a CLI command fills a few
# thousand entries across all of them, so none of them evicts.
FAMILY_CACHE_SIZE = 1 << 14


class DegenerateParameterError(ValueError):
    """A hypergeometric denominator Pochhammer vanishes before truncation."""


def check_lower(pairs, n):
    """Reject the (name, a) pairs whose denominator Pochhammer (a)_n vanishes."""
    for name, a in pairs:
        if n and not pochhammer(a, n):
            j = next(j for j in range(n) if not (a + j))
            raise DegenerateParameterError(
                f"denominator parameter {name} = {a} hits zero at shift {j}"
            )


# ---------------------------------------------------------------------------
# univariate factors: one integer kernel, read through _Factor
# ---------------------------------------------------------------------------

def _head_vector(n, uppers):
    """(den, [H'_k]): the upper prefix products prod_j (u_j)_k as integer
    pairs over one denominator.  With every u_j = U_j / D over a common D,
    prod_j (u_j)_k is an integer over D^(k nu), nu = len(uppers); scaled by
    D^((n - k) nu) * n!/k!, every H'_k shares the denominator D^(n nu) * n!.
    The list ends at the first vanishing product, as every term after it
    vanishes."""
    nu = len(uppers)
    den, parts = integer_parts(uppers)
    heads = _gaussian_products(parts, den, range(n))
    step, top = den ** nu, factorial(n)
    out = []
    for k, (hr, hi) in enumerate(heads):
        scale = step ** (n - k) * (top // factorial(k))
        out.append((hr * scale, hi * scale))
    return step ** n * top, out


def _tail_vector(n, lowers):
    """(den, [T'_k]): the lower tails prod_j (l_j + k)_{n-k}, k = 0..n, as
    integer pairs over one denominator.  With every l_j = L_j / D, the tail
    is an integer over D^((n - k) nl), nl = len(lowers); scaled by D^(k nl),
    every T'_k shares the denominator D^(n nl).  A tail below a vanishing
    one vanishes too."""
    nl = len(lowers)
    den, parts = integer_parts(lowers)
    tails = _gaussian_products(parts, den, range(n - 1, -1, -1))
    step = den ** nl
    out = [(0, 0)] * (n + 1 - len(tails))
    for k in range(len(out), n + 1):
        tr, ti = tails[n - k]
        scale = step ** k
        out.append((tr * scale, ti * scale))
    return step ** n, out


def _gaussian_products(params, den, shifts):
    """The running products prod_{s so far} prod_j (V_j + sD) over the
    ``shifts``, V_j = A_j + B_j i given as (A_j, B_j): (re, im) pairs from
    the empty product (1, 0), ending at the first zero, as all after it are."""
    out = [(1, 0)]
    pr, pi = 1, 0
    for s in shifts:
        sd = s * den
        for a, b in params:
            a += sd
            pr, pi = pr * a - pi * b, pr * b + pi * a
        out.append((pr, pi))
        if not (pr or pi):
            break
    return out


def _pair(e, v):
    """The conjugate pair (e + iv, e - iv), built from one multiplication by i."""
    iv = times_i(v)
    return e + iv, e - iv


# kind -> (uppers(n, *args), named lowers(*args)) of the kernel sum, each
# written once and read by ``_Factor``, for the primaries and the members
# alike.  The lowers never read the kind's argument (the last one).
_KINDS = {
    "racah": (
        lambda n, alpha, beta, gamma, delta, s: (
            -n, n + alpha + beta + 1, -s, s + gamma + delta + 1),
        lambda alpha, beta, gamma, delta, s: (
            ("alpha+1", alpha + 1), ("beta+delta+1", beta + delta + 1), ("gamma+1", gamma + 1)),
    ),
    "wilson": (
        lambda n, a, b, c, d, x: (-n, n + a + b + c + d - 1, *_pair(a, x)),
        lambda a, b, c, d, x: (("a+b", a + b), ("a+c", a + c), ("a+d", a + d)),
    ),
    "cdh": (
        lambda n, a, b, c, x: (-n, *_pair(a, x)),
        lambda a, b, c, x: (("a+b", a + b), ("a+c", a + c)),
    ),
    "ch": (
        lambda n, a, b, c, d, x: (-n, n + a + b + c + d - 1, a + times_i(x)),
        lambda a, b, c, d, x: (("a+b", a + b), ("a+d", a + d)),
    ),
}


# the value passed for the coordinate a side of a factor does not read
_ANY = Fraction(0)


class _Factor:
    """One univariate factor of degree n, evaluated from stored vectors.
    Its upper parameters read only the coordinate ``own`` (the coupled
    coordinate cancels from them) and its lower parameters only the
    coordinate ``coupled``, so term k of the kernel sum is
    H'_k(own) * T'_k(coupled) over one denominator.  The factor keeps the
    upper vector of each own coordinate and the lower vector of each coupled
    coordinate it has met, at most ``FAMILY_CACHE_SIZE`` per side, dropping
    the oldest first; a value is then one dot product (:meth:`dot`), which
    ``family_grid`` takes for a member's factors and each primary for its
    one factor, whose arguments read no coordinate.  ``check_lower`` runs
    when a lower vector is built, and a degenerate one is not kept."""

    __slots__ = ("kind", "n", "own", "coupled", "args", "turns", "heads", "tails")

    def __init__(self, kind, n, own, coupled, args):
        self.kind, self.n, self.own, self.coupled, self.args = kind, n, own, coupled, args
        # the continuous Hahn factor carries i^n
        self.turns = n % 4 if kind == "ch" else 0
        self.heads, self.tails = {}, {}

    def head(self, v):
        """(den, vector) of the upper products at own coordinate v."""
        vector = self.heads.get(v)
        if vector is None:
            uppers = _KINDS[self.kind][0](self.n, *self.args(v, _ANY))
            vector = _keep(self.heads, v, _head_vector(self.n, uppers))
        return vector

    def tail(self, w):
        """(den, vector) of the lower tails at coupled coordinate w."""
        vector = self.tails.get(w)
        if vector is None:
            lowers = _KINDS[self.kind][1](*self.args(_ANY, w))
            check_lower(lowers, self.n)
            vector = _keep(self.tails, w, _tail_vector(self.n, [a for _, a in lowers]))
        return vector

    def dot(self, heads, tails):
        """(re, im) of the factor from an upper and a lower vector: their
        dot product, turned by i^n for the continuous Hahn factor."""
        re, im = gdot(zip(heads, tails))
        for _ in range(self.turns):
            re, im = -im, re
        return re, im


def _keep(store, key, value):
    """Store the value, first dropping the oldest entry of a full store."""
    if len(store) >= FAMILY_CACHE_SIZE:
        del store[next(iter(store))]
    store[key] = value
    return value


def _primary(kind, n, args):
    """The kind's factor of degree n at its arguments: one ``_Factor``
    whose arguments read no coordinate, its lowers checked as its lower
    vector is built, and the value its dot gives."""
    factor = _Factor(kind, n, 0, None, lambda *_: args)
    hden, heads = factor.head(None)
    tden, tails = factor.tail(None)
    return from_parts(hden * tden, *factor.dot(heads, tails))


@lru_cache(maxsize=FAMILY_CACHE_SIZE)
def racah_uni(n, alpha, beta, gamma, delta, s):
    """Univariate Racah polynomial r_n(alpha,beta,gamma,delta;s).

    Degree 2n in s and degree n in the lattice s(s+gamma+delta+1).
    """
    return _primary("racah", n, (alpha, beta, gamma, delta, s))


@lru_cache(maxsize=FAMILY_CACHE_SIZE)
def wilson_uni(n, a, b, c, d, x):
    """Wilson polynomial w_n(x^2; a, b, c, d); an even function of x."""
    return _primary("wilson", n, (a, b, c, d, x))


@lru_cache(maxsize=FAMILY_CACHE_SIZE)
def cdh_uni(n, a, b, c, x):
    """Continuous dual Hahn polynomial d_n(a, b, c | x), even in x."""
    return _primary("cdh", n, (a, b, c, x))


@lru_cache(maxsize=FAMILY_CACHE_SIZE)
def ch_uni(n, a, b, c, d, x):
    """Continuous Hahn polynomial h_n(a, b, c, d | x) with the i^n prefactor."""
    return _primary("ch", n, (a, b, c, d, x))


# ---------------------------------------------------------------------------
# brute-force series oracles (independent code path: prefactor times a
# running-ratio sum, with explicit division at every term)
# ---------------------------------------------------------------------------

def hyper_series_oracle(numerators, denominators, terms):
    """Sum_{k=0}^{terms-1} prod (num_j)_k / (prod (den_j)_k * k!) at unit
    argument, via term ratios."""
    term = gauss(1) if any(isinstance(v, GaussianRational) for v in numerators) else Fraction(1)
    total = term
    for k in range(terms - 1):
        for nu in numerators:
            term = term * (nu + k)
        for de in denominators:
            dval = de + k
            if not dval:
                raise DegenerateParameterError(
                    f"series denominator {de} + {k} vanished mid-sum"
                )
            term = term / dval
        term = term / (k + 1)
        total = total + term
    return demote(total)


def racah_uni_oracle(n, alpha, beta, gamma, delta, s):
    pre = (
        pochhammer(alpha + 1, n)
        * pochhammer(beta + delta + 1, n)
        * pochhammer(gamma + 1, n)
    )
    series = hyper_series_oracle(
        [Fraction(-n), n + alpha + beta + 1, -s, s + gamma + delta + 1],
        [alpha + 1, beta + delta + 1, gamma + 1],
        n + 1,
    )
    return demote(pre * series)


def wilson_uni_oracle(n, a, b, c, d, x):
    pre = pochhammer(a + b, n) * pochhammer(a + c, n) * pochhammer(a + d, n)
    ix = GaussianRational(0, 1) * gauss(x)
    series = hyper_series_oracle(
        [gauss(Fraction(-n)), gauss(n + a + b + c + d - 1), gauss(a) + ix, gauss(a) - ix],
        [a + b, a + c, a + d],
        n + 1,
    )
    return demote(pre * series)


def cdh_uni_oracle(n, a, b, c, x):
    pre = pochhammer(a + b, n) * pochhammer(a + c, n)
    ix = GaussianRational(0, 1) * gauss(x)
    series = hyper_series_oracle(
        [gauss(Fraction(-n)), gauss(a) + ix, gauss(a) - ix],
        [a + b, a + c],
        n + 1,
    )
    return demote(pre * series)


def ch_uni_oracle(n, a, b, c, d, x):
    pre = GaussianRational(0, 1) ** n * pochhammer(a + b, n) * pochhammer(a + d, n)
    ix = GaussianRational(0, 1) * gauss(x)
    series = hyper_series_oracle(
        [gauss(Fraction(-n)), gauss(n + a + b + c + d - 1), gauss(a) + ix],
        [a + b, a + d],
        n + 1,
    )
    return demote(pre * series)


# ---------------------------------------------------------------------------
# family specifications
# ---------------------------------------------------------------------------

RACAH = "racah"
RACAH_BAR = "racah-bar"
WILSON = "wilson"
WILSON_BAR = "wilson-bar"
CDH = "cdh"
CH = "ch"
CH_BAR = "ch-bar"
CH_TRI = "ch-tri"

# Each second family shares its base family's parameters, its equation and
# its S_n/T_n closed forms; the connection problem links the two.
BASE = {RACAH_BAR: RACAH, WILSON_BAR: WILSON, CH_BAR: CH}
PAIR = {**BASE, **{base: bar for bar, base in BASE.items()}}


def base_family(family):
    """The family whose parameters, equation and S_n/T_n forms this one uses."""
    return BASE.get(family, family)


PARAM_NAMES = {
    RACAH: ("beta0", "beta1", "beta2", "beta3", "N"),
    WILSON: ("a", "b", "c", "d", "e2"),
    CDH: ("a", "b", "c", "e2"),
    CH: ("a1", "e2", "a3", "b1", "b3"),
    CH_TRI: ("a1", "e2", "e3", "a4", "b1", "b4"),
}

# generic fixtures: chosen so every Pochhammer denominator and operator
# denominator stays nonzero over the standard test grids
DEFAULT_PARAMS = {
    RACAH: {
        "beta0": Fraction(1, 5),
        "beta1": Fraction(2, 3),
        "beta2": Fraction(7, 3),
        "beta3": Fraction(9, 2),
        "N": Fraction(17, 2),
    },
    WILSON: {
        "a": Fraction(1, 2),
        "b": Fraction(3, 4),
        "c": Fraction(5, 4),
        "d": Fraction(7, 6),
        "e2": Fraction(2, 5),
    },
    CDH: {
        "a": Fraction(1, 2),
        "b": Fraction(3, 4),
        "c": Fraction(5, 4),
        "e2": Fraction(2, 5),
    },
    CH: {
        "a1": Fraction(1, 3),
        "e2": Fraction(2, 7),
        "a3": Fraction(3, 5),
        "b1": Fraction(5, 6),
        "b3": Fraction(4, 9),
    },
    CH_TRI: {
        "a1": Fraction(1, 3),
        "e2": Fraction(2, 7),
        "b1": Fraction(5, 6),
        "e3": Fraction(1, 2),
        "a4": Fraction(3, 7),
        "b4": Fraction(5, 11),
    },
}

ALL_FAMILIES = (RACAH, RACAH_BAR, WILSON, WILSON_BAR, CDH, CH, CH_BAR, CH_TRI)
# a second family reads its base family's rows
PARAM_NAMES = {f: PARAM_NAMES[base_family(f)] for f in ALL_FAMILIES}
DEFAULT_PARAMS = {f: DEFAULT_PARAMS[base_family(f)] for f in ALL_FAMILIES}


class FamilySpec:
    """A family name plus a complete exact parameter set.  A spec is
    immutable: its parameters are a read-only mapping and its hash is taken
    once.  It carries its members (``_members``: label -> the ``_Factor`` of
    each nonzero degree, with the vectors it keeps), each built once per
    label by ``_member`` for ``family_grid``, the specs :meth:`shifted`
    built from it (``_shifted``: shifts -> spec), and its monic recurrence
    chain (``_chain``: the ``ttrr.GChain`` that ``ttrr.monic_chain`` keeps,
    None until one is built), which both leadings of ``ttrr.generate`` read."""

    __slots__ = ("family", "params", "_key", "_hash", "_members", "_shifted", "_chain")

    def __init__(self, family, params=None):
        if family not in PARAM_NAMES:
            raise ValueError(f"unknown family {family!r}")
        base = dict(DEFAULT_PARAMS[family])
        if params:
            base.update({k: rat(v) for k, v in params.items()})
        unknown = set(base) - set(PARAM_NAMES[family])
        if unknown:
            raise ValueError(f"parameters {sorted(unknown)} do not belong to {family}")
        key = (family,) + tuple(base[k] for k in PARAM_NAMES[family])
        state = {"family": family, "params": MappingProxyType(base), "_key": key,
                 "_hash": hash(key), "_members": {}, "_shifted": {}, "_chain": None}
        for name, value in state.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"FamilySpec is immutable: cannot set {name}")

    def key(self):
        return self._key

    def __eq__(self, other):
        return self is other or (isinstance(other, FamilySpec) and self._key == other._key)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        body = ", ".join(f"{k}={v}" for k, v in self.params.items())
        return f"FamilySpec({self.family}; {body})"

    @property
    def nvars(self):
        return 3 if self.family == CH_TRI else 2

    def shifted(self, **deltas):
        """The spec with each named parameter moved by its delta, built once
        per set of deltas: a ladder shifts by the same deltas at every
        point, so one shifted spec, with the member vectors it keeps, serves
        all of its checks."""
        key = tuple(sorted((k, rat(dv)) for k, dv in deltas.items()))
        spec = self._shifted.get(key)
        if spec is None:
            params = dict(self.params)
            for k, dv in key:
                params[k] = params[k] + dv
            spec = self._shifted[key] = FamilySpec(self.family, params)
        return spec

    def lattices(self):
        base = base_family(self.family)
        if base == RACAH:
            return (
                quadratic(self.params["beta1"], "x"),
                quadratic(self.params["beta2"], "y"),
            )
        if base in (WILSON, CDH):
            return (wilson_square("x"), wilson_square("y"))
        if base == CH_TRI:
            return (linear("x"), linear("y"), linear("z"))
        return (linear("x"), linear("y"))

    def to_json(self):
        return {
            "family": self.family,
            "params": {k: rat_str(v) for k, v in self.params.items()},
        }


def check_label(spec, label):
    label = tuple(int(v) for v in label)
    if len(label) != spec.nvars:
        raise ValueError(
            f"label {label} has wrong arity for {spec.family} ({spec.nvars} variables)"
        )
    if any(v < 0 for v in label):
        raise ValueError(f"label {label} has a negative degree")
    return label


def check_point(spec, point):
    if len(point) != spec.nvars:
        raise ValueError(
            f"point {point} has wrong arity for {spec.family} ({spec.nvars} variables)"
        )
    return tuple(point)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def eval_family(spec: FamilySpec, label, point):
    """Exact value of the family member at the point.

    Wilson and continuous dual Hahn values are real for real inputs; this is
    asserted, not assumed.  Continuous Hahn values live in Q(i).
    """
    return family_function(spec, label)(check_point(spec, point))


def _couplings(family, p, label):
    """The family's univariate factors at the label as (kind, n, own,
    coupled, args): ``args(v, w)`` gives the factor's arguments with the
    point's coordinate ``own`` at v and its coordinate ``coupled`` at w
    (None: no coordinate but ``own`` enters, and w is not read).  These are
    the couplings of the module docstring, with every label-only part
    computed here once.  The member factors and the oracle path share them."""
    values = [p[k] for k in PARAM_NAMES[family]]
    if family == RACAH:
        (n, m), (b0, b1, b2, b3, N) = label, values
        u0, v0 = b1 - b0 - 1, b2 - b1 - 1
        u1, v1, g1, d1 = 2 * n + b2 - b0 - 1, b3 - b2 - 1, n - N - 1, n + b2 + N
        return (
            ("racah", n, 0, 1, lambda s, t: (u0, v0, -1 - t, b1 + t, s)),
            ("racah", m, 1, None, lambda t, _: (u1, v1, g1, d1, t - n)),
        )
    if family == RACAH_BAR:
        (n, m), (b0, b1, b2, b3, N) = label, values
        u0, v0, g0, d0, nm = 2 * m - b1 + b3 - 1, b1 - b0 - 1, m - N - 1, m - N - b1, N - m
        u1, v1, n1, bn = b3 - b2 - 1, b2 - b1 - 1, N + 1, -b2 - N
        return (
            ("racah", n, 0, None, lambda s, _: (u0, v0, g0, d0, nm - s)),
            ("racah", m, 1, 0, lambda t, s: (u1, v1, s - n1, bn - s, N - t)),
        )
    if family == WILSON:
        (n, m), (a, b, c, d, e2) = label, values
        an, bn = n + a + e2, n + b + e2
        return (
            ("wilson", n, 0, 1, lambda x, y: (a, b, *_pair(e2, y), x)),
            ("wilson", m, 1, None, lambda y, _: (an, bn, c, d, y)),
        )
    if family == WILSON_BAR:
        (n, m), (a, b, c, d, e2) = label, values
        cm, dm = m + c + e2, m + d + e2
        return (
            ("wilson", n, 0, None, lambda x, _: (cm, dm, a, b, x)),
            ("wilson", m, 1, 0, lambda y, x: (c, d, *_pair(e2, x), y)),
        )
    if family == CDH:
        (n, m), (a, b, c, e2) = label, values
        an = n + a + e2
        return (
            ("cdh", n, 0, 1, lambda x, y: (a, *_pair(e2, y), x)),
            ("cdh", m, 1, None, lambda y, _: (an, b, c, y)),
        )
    if family == CH:
        (n, m), (a1, e2, a3, b1, b3) = label, values
        an, bn = n + a1 + e2, n + b1 + e2
        return (
            ("ch", n, 0, 1, lambda x, y: (a1, b1, *_pair(e2, y)[::-1], x)),
            ("ch", m, 1, None, lambda y, _: (an, bn, b3, a3, y)),
        )
    if family == CH_BAR:
        (n, m), (a1, e2, a3, b1, b3) = label, values
        bm, am = m + e2 + b3, m + e2 + a3
        return (
            ("ch", n, 0, None, lambda x, _: (bm, am, a1, b1, x)),
            ("ch", m, 1, 0, lambda y, x: (b3, a3, *_pair(e2, x)[::-1], y)),
        )
    if family == CH_TRI:
        (n, m, r), (a1, e2, e3, a4, b1, b4) = label, values
        an, bn = n + a1 + e2, n + b1 + e2
        anm, bnm = n + m + a1 + e2 + e3, n + m + b1 + e2 + e3
        return (
            ("ch", n, 0, 1, lambda x, y: (a1, b1, *_pair(e2, y)[::-1], x)),
            ("ch", m, 1, 2, lambda y, z: (an, bn, *_pair(e3, z)[::-1], y)),
            ("ch", r, 2, None, lambda z, _: (anm, bnm, b4, a4, z)),
        )
    raise ValueError(family)  # pragma: no cover


def _factors(family, p, label, point):
    """The factor calls (kind, n, args) at the point, degree 0 included."""
    return tuple(
        (kind, n, args(point[own], None if coupled is None else point[coupled]))
        for kind, n, own, coupled, args in _couplings(family, p, label)
    )


def _multiply(uni, factors):
    """Product of the factor calls through the {kind: function} backend;
    the empty product is 1."""
    values = [uni[kind](n, *args) for kind, n, args in factors]
    return demote(reduce(mul, values)) if values else Fraction(1)


def _member(spec, label):
    """The factors of nonzero degree of the member, built once per label and
    kept on the spec; a degree-0 factor is 1: (a)_0 = 1, one term, and
    nothing to check."""
    factors = spec._members.get(label)
    if factors is None:
        factors = spec._members[label] = [
            _Factor(*c) for c in _couplings(spec.family, spec.params, label) if c[1]
        ]
    return factors


def _raise_non_real(family, den, re, im, point):
    raise ArithmeticError(f"{family} value at {point} came out non-real: {from_parts(den, re, im)}")


def _raise(error, point):
    raise error


def _over_one(vectors):
    """(den, [vector]): the (den_k, vector_k) pairs written over the lcm of
    their denominators; an entry that is not a pair is kept as it is."""
    den = lcm(*(v[0] for v in vectors if v.__class__ is tuple))
    return den, [
        v if v.__class__ is not tuple
        else v[1] if v[0] == den
        else [(a * (den // v[0]), b * (den // v[0])) for a, b in v[1]]
        for v in vectors
    ]


def family_grid(spec, labels, axes, deferred=False):
    """Per label, (den, [(A, B)]): the member's values (A + Bi) / den at the
    points of the tensor grid of ``axes`` (one list of coordinates per
    variable), row-major, over one denominator that is not reduced.  This
    is the one code that turns a member's ``_Factor`` vectors into values;
    ``_eval_cached`` reads one point as its one-point grid.  A factor reads
    its upper vector once per coordinate of its own axis and its lower
    vector once per coordinate of its coupled axis, each side written over
    one denominator for the axis; a point is then one dot product per
    factor and their product.  A Racah, Wilson or continuous dual Hahn
    member must be real at a real point: a non-real value there raises an
    ArithmeticError.

    With ``deferred``, nothing raises here: a point the member cannot be
    sampled at holds, in place of its pair, a function of the point's
    coordinates (as the caller holds them) that raises what
    ``family_function(spec, label)`` raises there, the degenerate lower
    vector of the first factor in member order that needs one, else the
    non-real value.  So a caller meets an error only at a point it reads,
    in its own order.  Without it the first degenerate lower vector, in
    factor and axis order, raises as it is built, and then the first
    non-real value in row-major order."""
    points = list(product(*axes))
    indices = list(product(*(range(len(axis)) for axis in axes)))
    real = base_family(spec.family) in (RACAH, WILSON, CDH)
    out = []
    for label in labels:
        den, tables = 1, []
        for f in _member(spec, check_label(spec, label)):
            hden, heads = _over_one([f.head(v) for v in axes[f.own]])
            coupled = [None] if f.coupled is None else axes[f.coupled]
            tden, tails = _over_one([_tail(f, w, deferred) for w in coupled])
            den *= hden * tden
            values = [[f.dot(h, t) if t.__class__ is list else t for t in tails] for h in heads]
            tables.append((f.own, f.coupled, values))
        grid = []
        for point, idx in zip(points, indices):
            pairs = [
                values[idx[own]][0 if coupled is None else idx[coupled]]
                for own, coupled, values in tables
            ]
            unsampled = [p for p in pairs if p.__class__ is not tuple]
            if unsampled:
                grid.append(unsampled[0])
                continue
            re, im = gmul(pairs)
            if im and real and all(imag_part(v) == 0 for v in point):
                error = partial(_raise_non_real, spec.family, den, re, im)
                if not deferred:
                    error(point)
                grid.append(error)
            else:
                grid.append((re, im))
        out.append((den, grid))
    return out


def _tail(factor, w, deferred):
    """The factor's lower vector at the coupled coordinate w or, when it is
    degenerate and ``deferred``, a function that raises its error."""
    try:
        return factor.tail(w)
    except DegenerateParameterError as exc:
        if not deferred:
            raise
        return partial(_raise, exc)


_ORACLES = {
    "racah": racah_uni_oracle,
    "wilson": wilson_uni_oracle,
    "cdh": cdh_uni_oracle,
    "ch": ch_uni_oracle,
}


def eval_family_oracle(spec: FamilySpec, label, point):
    """Brute-force evaluation: the same factor couplings, but every
    univariate factor summed term-by-term by the series oracles.  No proof
    path calls it: it is kept as the independent route the tests compare
    ``family_grid`` and the primaries against, value and type."""
    label = check_label(spec, label)
    point = check_point(spec, point)
    return _multiply(_ORACLES, _factors(spec.family, spec.params, label, point))


def family_function(spec, label):
    """The family member as a stencil function of its grid point (a tuple)."""
    label = check_label(spec, label)
    return lambda point: _eval_cached(spec, label, tuple(point))


@lru_cache(maxsize=FAMILY_CACHE_SIZE)
def _eval_cached(spec, label, point):
    # keyed by the spec itself: equal specs hash and compare by their key();
    # the value is the member's one-point grid
    ((den, (pair,)),) = family_grid(spec, [label], [[c] for c in point])
    return from_parts(den, *pair)


# ---------------------------------------------------------------------------
# derivative ladders
# ---------------------------------------------------------------------------

# a second family's printed ladder differentiates in its second variable
LADDER_DIRECTION = {f: int(f in BASE) for f in ALL_FAMILIES if f != CH_TRI}

# family -> (factor(params, k), parameter shifts, point shift) of the printed
# D P_label(point) = factor * P~_label'(point + point shift): k is the label's
# entry in the ladder's direction, label' lowers it, P~ has shifted parameters
LADDERS = {
    RACAH: (lambda p, n: n * (n - p["beta0"] + p["beta2"] - 1),
            {"beta1": 1, "beta2": 2, "beta3": 2, "N": -1}, (-HALF, -1)),
    RACAH_BAR: (lambda p, m: m * (m + p["beta3"] - p["beta1"] - 1),
                {"beta2": 1, "beta3": 2, "N": -1}, (0, -HALF)),
    WILSON: (lambda p, n: -n * (n + p["a"] + p["b"] + 2 * p["e2"] - 1),
             {"a": HALF, "b": HALF, "e2": HALF}, (0, 0)),
    WILSON_BAR: (lambda p, m: -m * (m + p["c"] + p["d"] + 2 * p["e2"] - 1),
                 {"c": HALF, "d": HALF, "e2": HALF}, (0, 0)),
    CDH: (lambda p, n: Fraction(-n), {"a": HALF, "e2": HALF}, (0, 0)),
    CH: (lambda p, n: n * (n + p["a1"] + p["b1"] + 2 * p["e2"] - 1),
         {"a1": HALF, "e2": HALF, "b1": HALF}, (0, 0)),
    CH_BAR: (lambda p, m: m * (m + p["a3"] + p["b3"] + 2 * p["e2"] - 1),
             {"e2": HALF, "a3": HALF, "b3": HALF}, (0, 0)),
}


def ladder_parts(spec: FamilySpec, label):
    """(direction, factor, shifted spec, lowered label, point map) of the
    family's printed difference-derivative identity."""
    label = check_label(spec, label)
    if spec.family not in LADDERS:
        raise ValueError(f"no printed ladder for family {spec.family}")
    factor, shifts, shift = LADDERS[spec.family]
    direction = LADDER_DIRECTION[spec.family]
    k = label[direction]
    lowered = label[:direction] + (max(k - 1, 0),) + label[direction + 1:]
    point_map = lambda pt: tuple(v + d for v, d in zip(pt, shift))
    return direction, factor(spec.params, k), spec.shifted(**shifts), lowered, point_map


def derivative_ladder_check(spec: FamilySpec, label, point):
    """LHS - RHS of the printed ladder identity at the point; exactly 0."""
    label = check_label(spec, label)
    point = check_point(spec, point)
    direction, factor, shifted, new_label, transform = ladder_parts(spec, label)
    lattice = spec.lattices()[direction]
    lhs = partial_D(lattice, family_function(spec, label), point, direction)
    if label[direction] == 0:
        rhs = 0 * lhs
    else:
        rhs = factor * eval_family(shifted, new_label, transform(point))
    return demote(lhs - rhs)


# ---------------------------------------------------------------------------
# parameter maps
# ---------------------------------------------------------------------------

def racah_to_wilson_map(a, b, c, d, e2):
    """The corrected change of variables carrying Racah data to Wilson data:
    beta values, truncation parameter, and the grid substitution
    s = -a + ix, t = -a - e2 + iy."""
    a, b, c, d, e2 = map(rat, (a, b, c, d, e2))
    betas = {
        "beta0": a - b,
        "beta1": 2 * a,
        "beta2": 2 * a + 2 * e2,
        "beta3": 2 * a + 2 * e2 + c + d,
        "N": -a - d - e2,
    }

    def point_map(x, y):
        ii = GaussianRational(0, 1)
        return (-a + ii * gauss(x), -a - e2 + ii * gauss(y))

    return betas, point_map
