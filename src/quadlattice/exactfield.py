"""Exact scalar arithmetic: big rationals, Gaussian rationals, Pochhammer symbols.

Every quantity in this package is either a ``fractions.Fraction`` (arbitrary
precision rational, always reduced, positive denominator) or a
:class:`GaussianRational` (a + b*i with exact rational parts).  No floats,
ever.

Ten kernels use integer numerators internally and build their Fractions
only at the end, if at all: :func:`pochhammer` here (its integer core
:func:`rising`), the kernel sum of ``families._Factor``, behind every
univariate family factor (the dot product of an upper vector, which reads
only the factor's own coordinate, and a lower vector, which reads at most
its coupled one, so that a family member keeps each vector per coordinate
and evaluates a point as one dot product per factor), the member grid of
``families`` (``family_grid``, through which every member value is read,
the oracle's and the sweeps' tensor grids and a single value's one-point
grid alike: a member's values on a tensor grid, each factor's vectors
written over one denominator per axis, as Gaussian integers over one
denominator), the exact interpolation of ``fbasis`` (an integer inverse
Vandermonde matrix per axis, applied to the samples; the member grid's
integers enter it as they are), the polynomial combinations of
``fbasis`` (``MPoly.combine_rows``, behind ``MPoly.combine``, every
``ExactMatrix.apply_rows`` on polynomials and each recurrence step's
right-hand sides: the polys written over one denominator once for all
rows, each row's coefficients over its own), the leading matrices of
``ttrr`` (each entry a product of :func:`rising` products over another),
the pivot scan of ``matrix`` (a fraction-free elimination in Gaussian
integers, behind the rank and the invertibility check), the pointwise
engine of ``pdeverify`` (each point's stencil contracted in Gaussian
integers from per-coordinate rows, and the residual one integer dot
product with the member grid's numerators), the symbolic images of
``pdeverify`` (each monomial's image under a table, the f_i terms times tensor products
of univariate S D and D^2 images, summed in Gaussian integers), and the
nine-term forms of ``pdeverify`` (each weight a Gaussian-integer numerator
over the form's one stated denominator).  Each writes its inputs over a
common denominator (the family sum and the member grid one per factor
side, the leading entries one per parameter combination, the pivot scan
one per row, the rest through :func:`integer_parts`, the polynomial
combinations one per poly list and one per row) and combines the integer
(or Gaussian-integer) numerators (the family sum, the member grid and the
nine-term forms with :func:`gdot` and :func:`gmul`).  Pochhammer, the
family sum, the interpolation, the polynomial combinations, the leading
entries, the pointwise engine and the symbolic images normalise each
result once (with :func:`from_parts` where it may be complex; the
symbolic images give a GaussianRational wherever a Gaussian coefficient
reaches it, as MPoly arithmetic does, and the polynomial combinations
wherever a Gaussian operand entered since the running sum last reached
zero, as the chain of binary operations does), to the values and types of
the same computations taken in Fraction arithmetic.  The other three
build no field value: the member grid hands its numerators and
denominator to the interpolation, to the residuals and to a single
value's reader, the pivot scan returns column indices, and the nine-term
forms return their numerators and denominator as integers, for the
pointwise engine to fold.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm


Rational = Fraction


def rat(value) -> Fraction:
    """Parse an exact rational from an int, string ("p/q" or "p") or Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value.strip())
    if isinstance(value, GaussianRational):
        if value.im != 0:
            raise ValueError("cannot coerce a non-real Gaussian rational to Rational")
        return value.re
    raise TypeError(f"cannot build an exact rational from {value!r}")


def rat_str(value) -> str:
    """Serialize a rational as "p/q", or "p" when the denominator is one."""
    q = rat(value)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


class GaussianRational:
    """An element of Q(i), kept in exact canonical form.

    Mixed arithmetic with ints and Fractions is supported so that code which
    happens to stay real never needs explicit wrapping; a real operand of
    ``+ - *`` (or a real divisor) acts on the parts directly instead of being
    lifted to Q(i).  The public constructor normalises its inputs through
    ``Fraction``; every arithmetic result is built by :func:`_gauss` from
    parts that Fraction arithmetic has already reduced.  The hash is
    computed on first use and kept in the ``_hash`` slot.
    """

    __slots__ = ("re", "im", "_hash")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    # -- basic protocol ----------------------------------------------------

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        if self.im == 0:
            return rat_str(self.re)
        return f"({rat_str(self.re)} + {rat_str(self.im)}i)"

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash(self.re) if self.im == 0 else hash((self.re, self.im))
            _set_hash(self, h)
        return h

    def __bool__(self):
        return self.re != 0 or self.im != 0

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, GaussianRational):
            return _gauss(self.re + other.re, self.im + other.im)
        if isinstance(other, _REAL):
            return _gauss(self.re + other, self.im)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return _gauss(-self.re, -self.im)

    def __sub__(self, other):
        if isinstance(other, GaussianRational):
            return _gauss(self.re - other.re, self.im - other.im)
        if isinstance(other, _REAL):
            return _gauss(self.re - other, self.im)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, _REAL):
            return _gauss(other - self.re, -self.im)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, GaussianRational):
            a, b, c, d = self.re, self.im, other.re, other.im
            return _gauss(a * c - b * d, a * d + b * c)
        if isinstance(other, _REAL):
            return _gauss(self.re * other, self.im * other)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, GaussianRational):
            a, b, c, d = self.re, self.im, other.re, other.im
            norm = c * c + d * d
            if not norm:
                raise ZeroDivisionError("division by zero Gaussian rational")
            return _gauss((a * c + b * d) / norm, (b * c - a * d) / norm)
        if isinstance(other, _REAL):
            if not other:
                raise ZeroDivisionError("division by zero Gaussian rational")
            return _gauss(self.re / other, self.im / other)
        return NotImplemented

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, exponent):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("only nonnegative integer powers are supported")
        result = _gauss(_ONE, _ZERO)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    # -- structure ---------------------------------------------------------

    def conjugate(self):
        return _gauss(self.re, -self.im)

    @property
    def is_real(self):
        return self.im == 0

    def to_json(self):
        return {"re": rat_str(self.re), "im": rat_str(self.im)}

    @classmethod
    def from_json(cls, obj):
        return cls(Fraction(obj["re"]), Fraction(obj["im"]))


_REAL = (int, Fraction)
_ZERO = Fraction(0)
_ONE = Fraction(1)
_new = object.__new__
_set_re = GaussianRational.re.__set__
_set_im = GaussianRational.im.__set__
_set_hash = GaussianRational._hash.__set__


def _gauss(re, im):
    """Trusted constructor: ``re`` and ``im`` must already be Fractions
    (which are always in lowest terms); they are stored as they are."""
    g = _new(GaussianRational)
    _set_re(g, re)
    _set_im(g, im)
    _set_hash(g, None)
    return g


I = GaussianRational(0, 1)


def _coerce(value):
    if isinstance(value, GaussianRational):
        return value
    if isinstance(value, _REAL):
        return _gauss(Fraction(value), _ZERO)
    return NotImplemented


def gauss(value) -> GaussianRational:
    """Coerce an int/Fraction/GaussianRational into Q(i)."""
    out = _coerce(value)
    if out is NotImplemented:
        raise TypeError(f"cannot coerce {value!r} into Q(i)")
    return out


def times_i(value) -> GaussianRational:
    """i * value as a swap of parts, i (a + bi) = -b + ai: no products."""
    if isinstance(value, GaussianRational):
        return _gauss(-value.im, value.re)
    return _gauss(_ZERO, rat(value))


def imag_part(value) -> Fraction:
    if isinstance(value, GaussianRational):
        return value.im
    return Fraction(0)


def demote(value):
    """Return a Fraction when the value is exactly real, else the Gaussian."""
    if isinstance(value, GaussianRational) and value.im == 0:
        return value.re
    return value


def field_str(value) -> str:
    value = demote(value)
    if isinstance(value, GaussianRational):
        return f"{rat_str(value.re)}+{rat_str(value.im)}i"
    return rat_str(value)


def integer_parts(values):
    """(D, [(A, B)]): each value as (A + Bi) / D over one common denominator
    D, with integer A and B (B = 0 for an int or Fraction value)."""
    parts = [(v.re, v.im) if isinstance(v, GaussianRational) else (v, 0) for v in values]
    den = lcm(*(p.denominator for pair in parts for p in pair))
    return den, [
        (re.numerator * (den // re.denominator), im.numerator * (den // im.denominator))
        for re, im in parts
    ]


def from_parts(den, re, im):
    """(re + im i) / den from integers, the inverse of :func:`integer_parts`:
    a Fraction when im is 0, as :func:`demote` gives, else a GaussianRational."""
    if not im:
        return Fraction(re, den)
    return _gauss(Fraction(re, den), Fraction(im, den))


def gdot(terms):
    """(re, im) of sum k f over the (k, f) pairs of Gaussian integers (A, B)."""
    re = im = 0
    for (ka, kb), (fa, fb) in terms:
        re += ka * fa - kb * fb
        im += ka * fb + kb * fa
    return re, im


def gmul(factors):
    """(re, im) of the product of Gaussian integers (A, B); the empty
    product is (1, 0)."""
    re, im = 1, 0
    for a, b in factors:
        re, im = re * a - im * b, re * b + im * a
    return re, im


def pochhammer(a, n: int):
    """Rising factorial (a)_n = a (a+1) ... (a+n-1), with (a)_0 = 1.

    An int or Fraction argument gives a Fraction and a Gaussian argument a
    GaussianRational, even when the product is real.  With a = A / D (or
    (A + Bi) / D over the common denominator of both parts) the product is
    one integer product prod_k (A + kD) over D^n, normalised once.
    """
    if n < 0:
        raise ValueError("pochhammer needs n >= 0")
    if isinstance(a, int):
        a = Fraction(a)
    if not n:
        return a - a + 1
    if n == 1:
        return a
    if isinstance(a, GaussianRational):
        re, im = a.re, a.im
        den = lcm(re.denominator, im.denominator)
        start, b = re.numerator * (den // re.denominator), im.numerator * (den // im.denominator)
        pr, pi = start, b
        for k in range(1, n):
            c = start + k * den
            pr, pi = pr * c - pi * b, pr * b + pi * c
        scale = den ** n
        return _gauss(Fraction(pr, scale), Fraction(pi, scale))
    return Fraction(rising(a.numerator, a.denominator, n), a.denominator ** n)


def rising(start, step, n: int):
    """prod_{k<n} (start + k step) in integers: with a = A / D, (a)_n is
    rising(A, D, n) / D^n."""
    out = 1
    for k in range(n):
        out *= start + k * step
    return out
