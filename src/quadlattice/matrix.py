"""Dense matrices over an exact field (rationals or Gaussian rationals).

One Gauss-Jordan elimination (:func:`_reduce`) with exact field division
lies behind :func:`exact_inverse` (it reduces [A | I]) and
:func:`solve_stacked` (it reduces [A | rhs]); with Fraction /
GaussianRational entries every step is exact, so inverses and solutions
carry no rounding.  Right-hand sides may be any values supporting addition
and multiplication by field scalars (in particular, polynomials); a
singular input is named by the first column without a pivot.  No proof
path calls :func:`solve_stacked`: the recurrence step reads its stacked
system off the L rows (``ttrr._read_step``), and the tests check that read
against this elimination.  :meth:`ExactMatrix.pivot_columns` does not run through it: it is a
fraction-free elimination in Gaussian integers, whose pivots give
:meth:`ExactMatrix.rank` and the invertibility check
(:func:`check_invertible`) that builds no inverse, with the message
:func:`exact_inverse` gives.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, sub

from .exactfield import field_str, integer_parts

_ZERO = Fraction(0)


class ExactMatrix:
    __slots__ = ("rows", "cols", "data")

    def __init__(self, data, cols=None):
        # ``cols`` carries the width of a matrix that has no rows to read it from
        data = [list(row) for row in data]
        self.rows = len(data)
        self.cols = cols if cols is not None else len(data[0]) if data else 0
        for row in data:
            if len(row) != self.cols:
                raise ValueError("ragged matrix data")
        self.data = data

    @classmethod
    def zero(cls, rows, cols):
        return cls([[Fraction(0)] * cols for _ in range(rows)], cols)

    @classmethod
    def identity(cls, n):
        return cls([[Fraction(int(i == j)) for j in range(n)] for i in range(n)], n)

    @classmethod
    def diagonal(cls, entries):
        entries = list(entries)
        n = len(entries)
        out = cls.zero(n, n)
        for i, e in enumerate(entries):
            out.data[i][i] = e
        return out

    def __getitem__(self, idx):
        i, j = idx
        return self.data[i][j]

    def __setitem__(self, idx, value):
        i, j = idx
        self.data[i][j] = value

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return self.rows == other.rows and self.cols == other.cols and self.data == other.data

    def __repr__(self):
        body = "; ".join(
            " ".join(str(x) for x in row) for row in self.data
        )
        return f"ExactMatrix({self.rows}x{self.cols}: {body})"

    def __add__(self, other):
        return self._entrywise(add, other)

    def __sub__(self, other):
        return self._entrywise(sub, other)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c):
        return ExactMatrix([[c * x for x in row] for row in self.data], self.cols)

    def __mul__(self, other):
        """The product; an entry sums its pairs of nonzero entries from the
        first one, so it is a GaussianRational exactly when a Gaussian operand
        contributes (even when real), and Fraction(0) when no pair does."""
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} * {other.rows}x{other.cols}")
        # with no rows, ``other`` still has its columns, each of them empty
        columns = [[(k, b) for k, b in enumerate(col) if b] for col in zip(*other.data)]
        columns = columns or [[]] * other.cols
        out = []
        for row in self.data:
            out_row = []
            for col in columns:
                acc = None
                for k, b in col:
                    a = row[k]
                    if a:
                        acc = a * b if acc is None else acc + a * b
                out_row.append(_ZERO if acc is None else acc)
            out.append(out_row)
        return ExactMatrix(out, other.cols)

    def transpose(self):
        return ExactMatrix(zip(*self.data), self.rows)

    def hstack(self, other):
        if self.rows != other.rows:
            raise ValueError("hstack needs equal row counts")
        return ExactMatrix([a + b for a, b in zip(self.data, other.data)], self.cols + other.cols)

    def vstack(self, other):
        if self.cols != other.cols:
            raise ValueError("vstack needs equal column counts")
        return ExactMatrix(self.data + other.data, self.cols)

    def apply_rows(self, vector):
        """Matrix action on a list of ring elements: for polynomials one
        ``combine_rows`` (found on the entries' class), which writes the
        vector in Gaussian integers once for every row, else a running sum
        per row."""
        if self.cols != len(vector):
            raise ValueError("length mismatch")
        if vector and hasattr(type(vector[0]), "combine_rows"):
            return type(vector[0]).combine_rows(self.data, vector)
        out = []
        for i in range(self.rows):
            acc = None
            for k in range(self.cols):
                c = self.data[i][k]
                if not c:
                    continue
                term = c * vector[k]
                acc = term if acc is None else acc + term
            if acc is None:
                acc = 0 * vector[0] if vector else Fraction(0)
            out.append(acc)
        return out

    def rank(self):
        """The rank: the number of pivot columns (:meth:`pivot_columns`)."""
        return len(self.pivot_columns())

    def pivot_columns(self):
        """The columns that raise the rank of the columns before them, by
        fraction-free elimination (Bareiss) in Z[i]: each row is scaled to
        Gaussian integers over its own lcm (:func:`integer_parts`), which
        keeps the rank, and each step divides the 2 x 2 minors of the rows
        below the pivot exactly by the previous pivot, so no entry leaves
        Z[i] and none grows beyond a minor of the scaled matrix.  Every
        entry is a nonzero multiple of the one Gauss-Jordan elimination
        reaches, so the pivots fall in the same columns as :func:`_reduce`'s."""
        rows = [integer_parts(row)[1] for row in self.data]
        pivots, (qr, qi) = [], (1, 0)
        for col in range(self.cols):
            rank = len(pivots)
            pivot = next((i for i in range(rank, len(rows)) if rows[i][col] != (0, 0)), None)
            if pivot is None:
                continue
            # the pivot row leaves the active rows, and the row it displaces moves down
            top, rows[pivot] = rows[pivot], rows[rank]
            (pr, pi), norm = top[col], qr * qr + qi * qi
            for i in range(rank + 1, len(rows)):
                row = rows[i]
                fr, fi = row[col]
                out = row[:col + 1]
                for (xr, xi), (yr, yi) in zip(row[col + 1:], top[col + 1:]):
                    # (p x - f y) / q, the division exact: times conj(q) over |q|^2
                    ar = pr * xr - pi * xi - fr * yr + fi * yi
                    ai = pr * xi + pi * xr - fr * yi - fi * yr
                    out.append(((ar * qr + ai * qi) // norm, (ai * qr - ar * qi) // norm))
                rows[i] = out
            qr, qi = pr, pi
            pivots.append(col)
        return pivots

    def to_json(self):
        return {
            "rows": self.rows,
            "cols": self.cols,
            "data": [[field_str(x) for x in row] for row in self.data],
        }

    def _entrywise(self, op, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")
        return ExactMatrix([list(map(op, a, b)) for a, b in zip(self.data, other.data)], self.cols)


def _reduce(rows, width):
    """Gauss-Jordan elimination of augmented ``rows`` in place.

    Pivots are searched in the first ``width`` columns only, which hold
    field scalars; the entries after them need only ``+`` and multiplication
    by a scalar, so polynomial right-hand sides ride along.  On return the
    k-th row holds the pivot of the k-th returned column, scaled to one, and
    every other row is zero in that column.  Returns the pivot columns.
    """
    pivots = []
    for col in range(width):
        r = len(pivots)
        pivot = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        # the pivot row is zero left of col, and a zero entry changes
        # nothing: only the nonzero entries of its tail take part
        inv = 1 / rows[r][col]
        tail = [inv * x if x else x for x in rows[r][col:]]
        rows[r] = rows[r][:col] + tail
        for i, row in enumerate(rows):
            if i != r and row[col]:
                f = -row[col]
                rows[i] = row[:col] + [
                    x + f * y if y else x for x, y in zip(row[col:], tail)
                ]
        pivots.append(col)
    return pivots


def _first_missing(pivots, width):
    """The first of ``width`` columns that has no pivot, or None."""
    return next((c for c in range(width) if c not in pivots), None)


def check_invertible(m: ExactMatrix):
    """Raise ValueError unless m is square and invertible, naming its first
    column without a pivot: a pivot scan (:meth:`ExactMatrix.pivot_columns`)
    in Gaussian integers, which builds no inverse."""
    if m.rows != m.cols:
        raise ValueError("only square matrices can be inverted")
    col = _first_missing(m.pivot_columns(), m.cols)
    if col is not None:
        raise ValueError(f"singular matrix: no pivot in column {col}")


def exact_inverse(m: ExactMatrix) -> ExactMatrix:
    """Exact inverse by one Gauss-Jordan elimination of [m | I]; raises on
    singular input, naming the first column without a pivot."""
    if m.rows != m.cols:
        raise ValueError("only square matrices can be inverted")
    n = m.rows
    rows = [row + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(m.data)]
    col = _first_missing(_reduce(rows, n), n)
    if col is not None:
        raise ValueError(f"singular matrix: no pivot in column {col}")
    return ExactMatrix([row[n:] for row in rows], n)


class InconsistentSystemError(ValueError):
    """A redundant row of a stacked system is not met by its solution."""


def solve_stacked(a: ExactMatrix, rhs):
    """Solve A x = rhs exactly for a full-column-rank (possibly tall) A.

    ``rhs`` is a list of A.rows ring elements.  Every redundant row must be
    consistent, otherwise :class:`InconsistentSystemError` (a ValueError)
    is raised; the system being exactly solvable is part of the contract
    being verified.
    """
    n = a.cols
    rows = [row + [value] for row, value in zip(a.data, rhs, strict=True)]
    col = _first_missing(_reduce(rows, n), n)
    if col is not None:
        raise ValueError(f"rank-deficient system: no pivot for column {col}")
    if any(row[n] for row in rows[n:]):
        raise InconsistentSystemError("inconsistent stacked system: nonzero residual row")
    return [row[n] for row in rows[:n]]

