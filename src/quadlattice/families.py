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

``_couplings`` is the one definition of these couplings.  The primary path
builds them once per spec and label, every label-only part included, so a
point evaluation does only the point's arithmetic.  A ``FamilySpec`` is
immutable: it hashes once and keeps the couplings of each member it has
evaluated.

The primary univariate factors share one cancellation-free kernel,
``_terminating_sum``: the lower Pochhammers are multiplied through, so the
k-th term is prod (u_j)_k * prod (l_j + k)_{n-k} / k!, with prefix products
of the upper parameters and suffix products of the lower tails (O(n)
multiplications).  The kernel works in integers: every parameter is
written over one common denominator D as an integer pair (A, B), B = 0 for
a real one, so the products are Gaussian-integer products; term k is
scaled to the common denominator D^E * n!, and one Fraction per part is
built from the integer sum at the end.  Before summing, each primary forms
every lower Pochhammer (l)_n with ``pochhammer`` and rejects the
parameters if one vanishes; a degree-0 factor is 1 and never reaches a
primary.  Every univariate factor has a second, independent implementation
used as a brute-force oracle by the tests: a prefactor (from
``pochhammer``) times the plain series summed by running term ratios in
Fraction arithmetic, dividing by every lower parameter at every term.  The
primaries never call ``pochhammer`` for a value, so the two routes share
no arithmetic beyond the parameters, and a slip in one does not cancel.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce
from math import factorial
from operator import mul
from types import MappingProxyType

from .exactfield import (
    GaussianRational,
    demote,
    gauss,
    imag_part,
    integer_parts,
    pochhammer,
    rat,
    times_i,
)
from .latticeops import linear, partial_D, quadratic, wilson_square

HALF = Fraction(1, 2)

# The bound of each family cache (the four primaries and ``_eval_cached``):
# a long run keeps at most this many values per cache, evicting the least
# recently used.  A benchmark job or a CLI command fills a few thousand
# entries across all five, so none of them evicts.
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
# univariate factors: cancellation-free primaries
# ---------------------------------------------------------------------------

def _terminating_sum(n, uppers, lowers):
    """Sum_{k=0}^{n} prod_j (u_j)_k * prod_j (l_j + k)_{n-k} / k!.

    This is prod_j (l_j)_n times the terminating series with upper
    parameters ``uppers`` (the first one -n) and lower parameters
    ``lowers``, with every lower Pochhammer cancelled: only k! divides.
    Every parameter is written over one common denominator D, so that
    v + k = (V + kD) / D with an integer (or Gaussian-integer) V.  The
    upper products grow as integer prefix products and the lower tails are
    integer suffix products, so term k is an integer over D^(e_k) * k!,
    e_k = k * len(uppers) + (n - k) * len(lowers).  Scaled by
    D^(E - e_k) * n!/k!, E the largest e_k, every term shares the
    denominator D^E * n!, and one Fraction per part is built at the end.
    The sum stops at the first vanishing upper product, after which every
    term is zero.  The value is a Fraction when its imaginary part is zero,
    else a GaussianRational.
    """
    if not n:
        return Fraction(1)
    nu, nl = len(uppers), len(lowers)
    top = max(nu, nl) * n
    den, parts = integer_parts((*uppers, *lowers))
    heads = _gaussian_products(parts[:nu], den, range(n))
    tails = _gaussian_products(parts[nu:], den, range(n - 1, -1, -1))
    # the tails below a vanishing one vanish too, and so do their terms
    first = n + 1 - len(tails)
    real = imag = 0
    for k in range(first, len(heads)):
        scale = den ** (top - nu * k - nl * (n - k)) * (factorial(n) // factorial(k))
        (hr, hi), (tr, ti) = heads[k], tails[n - k]
        real += (hr * tr - hi * ti) * scale
        imag += (hr * ti + hi * tr) * scale
    scale = den ** top * factorial(n)
    if imag:
        return GaussianRational(Fraction(real, scale), Fraction(imag, scale))
    return Fraction(real, scale)


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


@lru_cache(maxsize=FAMILY_CACHE_SIZE)
def racah_uni(n, alpha, beta, gamma, delta, s):
    """Univariate Racah polynomial r_n(alpha,beta,gamma,delta;s).

    Degree 2n in s and degree n in the lattice s(s+gamma+delta+1).
    """
    a1, bd1, g1 = alpha + 1, beta + delta + 1, gamma + 1
    check_lower([("alpha+1", a1), ("beta+delta+1", bd1), ("gamma+1", g1)], n)
    uppers = (-n, n + alpha + beta + 1, -s, s + gamma + delta + 1)
    return _terminating_sum(n, uppers, (a1, bd1, g1))


@lru_cache(maxsize=FAMILY_CACHE_SIZE)
def wilson_uni(n, a, b, c, d, x):
    """Wilson polynomial w_n(x^2; a, b, c, d); an even function of x."""
    ab, ac, ad = a + b, a + c, a + d
    check_lower([("a+b", ab), ("a+c", ac), ("a+d", ad)], n)
    uppers = (-n, n + a + b + c + d - 1, *_pair(a, x))
    return _terminating_sum(n, uppers, (ab, ac, ad))


@lru_cache(maxsize=FAMILY_CACHE_SIZE)
def cdh_uni(n, a, b, c, x):
    """Continuous dual Hahn polynomial d_n(a, b, c | x), even in x."""
    ab, ac = a + b, a + c
    check_lower([("a+b", ab), ("a+c", ac)], n)
    uppers = (-n, *_pair(a, x))
    return _terminating_sum(n, uppers, (ab, ac))


@lru_cache(maxsize=FAMILY_CACHE_SIZE)
def ch_uni(n, a, b, c, d, x):
    """Continuous Hahn polynomial h_n(a, b, c, d | x) with the i^n prefactor."""
    ab, ad = a + b, a + d
    check_lower([("a+b", ab), ("a+d", ad)], n)
    uppers = (-n, n + a + b + c + d - 1, a + times_i(x))
    value = _terminating_sum(n, uppers, (ab, ad))
    for _ in range(n % 4):
        value = times_i(value)
    return demote(value)


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
    once.  It carries its members' couplings (``_members``: label -> the
    factors of nonzero degree), built once per label by ``_eval_cached``."""

    __slots__ = ("family", "params", "_key", "_hash", "_members")

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
                 "_hash": hash(key), "_members": {}}
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
        params = dict(self.params)
        for k, dv in deltas.items():
            params[k] = params[k] + rat(dv)
        return FamilySpec(self.family, params)

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
        from .exactfield import rat_str

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
    """The family's univariate factors at the label as (kind, n, args), where
    ``args(*point)`` gives the factor's arguments at a point: the couplings
    of the module docstring, with every label-only part computed here once.
    The primary and the oracle paths share them."""
    values = [p[k] for k in PARAM_NAMES[family]]
    if family == RACAH:
        (n, m), (b0, b1, b2, b3, N) = label, values
        u0, v0 = b1 - b0 - 1, b2 - b1 - 1
        u1, v1, g1, d1 = 2 * n + b2 - b0 - 1, b3 - b2 - 1, n - N - 1, n + b2 + N
        return (
            ("racah", n, lambda s, t: (u0, v0, -1 - t, b1 + t, s)),
            ("racah", m, lambda s, t: (u1, v1, g1, d1, t - n)),
        )
    if family == RACAH_BAR:
        (n, m), (b0, b1, b2, b3, N) = label, values
        u0, v0, g0, d0, nm = 2 * m - b1 + b3 - 1, b1 - b0 - 1, m - N - 1, m - N - b1, N - m
        u1, v1, n1, bn = b3 - b2 - 1, b2 - b1 - 1, N + 1, -b2 - N
        return (
            ("racah", n, lambda s, t: (u0, v0, g0, d0, nm - s)),
            ("racah", m, lambda s, t: (u1, v1, s - n1, bn - s, N - t)),
        )
    if family == WILSON:
        (n, m), (a, b, c, d, e2) = label, values
        an, bn = n + a + e2, n + b + e2
        return (
            ("wilson", n, lambda x, y: (a, b, *_pair(e2, y), x)),
            ("wilson", m, lambda x, y: (an, bn, c, d, y)),
        )
    if family == WILSON_BAR:
        (n, m), (a, b, c, d, e2) = label, values
        cm, dm = m + c + e2, m + d + e2
        return (
            ("wilson", n, lambda x, y: (cm, dm, a, b, x)),
            ("wilson", m, lambda x, y: (c, d, *_pair(e2, x), y)),
        )
    if family == CDH:
        (n, m), (a, b, c, e2) = label, values
        an = n + a + e2
        return (
            ("cdh", n, lambda x, y: (a, *_pair(e2, y), x)),
            ("cdh", m, lambda x, y: (an, b, c, y)),
        )
    if family == CH:
        (n, m), (a1, e2, a3, b1, b3) = label, values
        an, bn = n + a1 + e2, n + b1 + e2
        return (
            ("ch", n, lambda x, y: (a1, b1, *_pair(e2, y)[::-1], x)),
            ("ch", m, lambda x, y: (an, bn, b3, a3, y)),
        )
    if family == CH_BAR:
        (n, m), (a1, e2, a3, b1, b3) = label, values
        bm, am = m + e2 + b3, m + e2 + a3
        return (
            ("ch", n, lambda x, y: (bm, am, a1, b1, x)),
            ("ch", m, lambda x, y: (b3, a3, *_pair(e2, x)[::-1], y)),
        )
    if family == CH_TRI:
        (n, m, r), (a1, e2, e3, a4, b1, b4) = label, values
        an, bn = n + a1 + e2, n + b1 + e2
        anm, bnm = n + m + a1 + e2 + e3, n + m + b1 + e2 + e3
        return (
            ("ch", n, lambda x, y, z: (a1, b1, *_pair(e2, y)[::-1], x)),
            ("ch", m, lambda x, y, z: (an, bn, *_pair(e3, z)[::-1], y)),
            ("ch", r, lambda x, y, z: (anm, bnm, b4, a4, z)),
        )
    raise ValueError(family)  # pragma: no cover


def _factors(family, p, label, point):
    """The factor calls (kind, n, args) at the point, degree 0 included."""
    return tuple((kind, n, args(*point)) for kind, n, args in _couplings(family, p, label))


def _multiply(uni, factors):
    """Product of the factor calls through the {kind: function} backend;
    the empty product is 1."""
    values = [uni[kind](n, *args) for kind, n, args in factors]
    return demote(reduce(mul, values)) if values else Fraction(1)


@lru_cache(maxsize=FAMILY_CACHE_SIZE)
def _eval_cached(spec, label, point):
    # keyed by the spec itself: equal specs hash and compare by their key()
    couplings = spec._members.get(label)
    if couplings is None:
        # a degree-0 factor is 1: (a)_0 = 1, one term, and nothing to check
        couplings = spec._members[label] = [
            c for c in _couplings(spec.family, spec.params, label) if c[1]
        ]
    # looked up per call, so that patched module attributes are honoured
    uni = {"racah": racah_uni, "wilson": wilson_uni, "cdh": cdh_uni, "ch": ch_uni}
    value = _multiply(uni, [(kind, n, args(*point)) for kind, n, args in couplings])
    if base_family(spec.family) in (RACAH, WILSON, CDH) and all(imag_part(v) == 0 for v in point):
        if imag_part(value) != 0:
            raise ArithmeticError(
                f"{spec.family} value at {point} came out non-real: {value}"
            )
    return value


_ORACLES = {
    "racah": racah_uni_oracle,
    "wilson": wilson_uni_oracle,
    "cdh": cdh_uni_oracle,
    "ch": ch_uni_oracle,
}


def eval_family_oracle(spec: FamilySpec, label, point):
    """Brute-force evaluation: the same factor couplings, but every
    univariate factor summed term-by-term by the series oracles."""
    label = check_label(spec, label)
    point = check_point(spec, point)
    return _multiply(_ORACLES, _factors(spec.family, spec.params, label, point))


def family_function(spec, label):
    """The family member as a stencil function of its grid point (a tuple)."""
    label = check_label(spec, label)
    return lambda point: _eval_cached(spec, label, tuple(point))


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
