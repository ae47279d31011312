"""Dense matrices over an exact field (rationals or Gaussian rationals).

Elimination is plain Gaussian elimination with exact field division; with
Fraction / GaussianRational entries every step is exact, so inverses and
ranks carry no rounding.  Right-hand sides in :func:`solve_stacked` may be
any values supporting addition and multiplication by field scalars (in
particular, polynomials), which is how the recurrence solver feeds vectors
of polynomials through an exact linear solve.
"""

from __future__ import annotations

from fractions import Fraction

from .exactfield import field_str


class ExactMatrix:
    __slots__ = ("rows", "cols", "data")

    def __init__(self, data):
        data = [list(row) for row in data]
        self.rows = len(data)
        self.cols = len(data[0]) if data else 0
        for row in data:
            if len(row) != self.cols:
                raise ValueError("ragged matrix data")
        self.data = data

    @classmethod
    def zero(cls, rows, cols):
        return cls([[Fraction(0)] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, n):
        return cls([[Fraction(int(i == j)) for j in range(n)] for i in range(n)])

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
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and all(
                self.data[i][j] == other.data[i][j]
                for i in range(self.rows)
                for j in range(self.cols)
            )
        )

    def __repr__(self):
        body = "; ".join(
            " ".join(str(x) for x in row) for row in self.data
        )
        return f"ExactMatrix({self.rows}x{self.cols}: {body})"

    def __add__(self, other):
        self._shape_check(other, same=True)
        return ExactMatrix(
            [
                [self.data[i][j] + other.data[i][j] for j in range(self.cols)]
                for i in range(self.rows)
            ]
        )

    def __sub__(self, other):
        self._shape_check(other, same=True)
        return ExactMatrix(
            [
                [self.data[i][j] - other.data[i][j] for j in range(self.cols)]
                for i in range(self.rows)
            ]
        )

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c):
        return ExactMatrix(
            [[c * self.data[i][j] for j in range(self.cols)] for i in range(self.rows)]
        )

    def __mul__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} * {other.rows}x{other.cols}")
        out = []
        for i in range(self.rows):
            row = []
            for j in range(other.cols):
                acc = Fraction(0)
                for k in range(self.cols):
                    a = self.data[i][k]
                    if a:
                        acc = acc + a * other.data[k][j]
                row.append(acc)
            out.append(row)
        return ExactMatrix(out)

    def transpose(self):
        return ExactMatrix(
            [[self.data[i][j] for i in range(self.rows)] for j in range(self.cols)]
        )

    def hstack(self, other):
        if self.rows != other.rows:
            raise ValueError("hstack needs equal row counts")
        return ExactMatrix(
            [self.data[i] + other.data[i] for i in range(self.rows)]
        )

    def vstack(self, other):
        if self.cols != other.cols:
            raise ValueError("vstack needs equal column counts")
        return ExactMatrix(self.data + other.data)

    def apply_rows(self, vector):
        """Matrix action on a list of ring elements (e.g. polynomials)."""
        if self.cols != len(vector):
            raise ValueError("length mismatch")
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
        m = [row[:] for row in self.data]
        r = 0
        for col in range(self.cols):
            pivot = None
            for i in range(r, self.rows):
                if m[i][col]:
                    pivot = i
                    break
            if pivot is None:
                continue
            m[r], m[pivot] = m[pivot], m[r]
            for i in range(r + 1, self.rows):
                if m[i][col]:
                    factor = m[i][col] / m[r][col]
                    m[i] = [m[i][j] - factor * m[r][j] for j in range(self.cols)]
            r += 1
            if r == self.rows:
                break
        return r

    def to_json(self):
        return {
            "rows": self.rows,
            "cols": self.cols,
            "data": [[field_str(x) for x in row] for row in self.data],
        }

    def _shape_check(self, other, same=False):
        if same and (self.rows != other.rows or self.cols != other.cols):
            raise ValueError("shape mismatch")


def exact_inverse(m: ExactMatrix) -> ExactMatrix:
    """Exact inverse by Gauss-Jordan elimination; raises on singular input."""
    if m.rows != m.cols:
        raise ValueError("only square matrices can be inverted")
    n = m.rows
    a = [row[:] for row in m.data]
    b = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot = None
        for i in range(col, n):
            if a[i][col]:
                pivot = i
                break
        if pivot is None:
            raise ValueError(f"singular matrix: no pivot in column {col}")
        a[col], a[pivot] = a[pivot], a[col]
        b[col], b[pivot] = b[pivot], b[col]
        piv = a[col][col]
        a[col] = [x / piv for x in a[col]]
        b[col] = [x / piv for x in b[col]]
        for i in range(n):
            if i != col and a[i][col]:
                f = a[i][col]
                a[i] = [a[i][j] - f * a[col][j] for j in range(n)]
                b[i] = [b[i][j] - f * b[col][j] for j in range(n)]
    return ExactMatrix(b)


def solve_stacked(a: ExactMatrix, rhs):
    """Solve A x = rhs exactly for a full-column-rank (possibly tall) A.

    ``rhs`` is a list of A.rows ring elements.  Every redundant row must be
    consistent, otherwise ValueError is raised; the system being exactly
    solvable is part of the contract being verified.
    """
    n = a.cols
    rows = [row[:] for row in a.data]
    vec = list(rhs)
    pivots = []
    r = 0
    for col in range(n):
        pivot = None
        for i in range(r, a.rows):
            if rows[i][col]:
                pivot = i
                break
        if pivot is None:
            raise ValueError(f"rank-deficient system: no pivot for column {col}")
        rows[r], rows[pivot] = rows[pivot], rows[r]
        vec[r], vec[pivot] = vec[pivot], vec[r]
        piv = rows[r][col]
        rows[r] = [x / piv for x in rows[r]]
        vec[r] = (1 / piv) * vec[r]
        for i in range(a.rows):
            if i != r and rows[i][col]:
                f = rows[i][col]
                rows[i] = [rows[i][j] - f * rows[r][j] for j in range(n)]
                vec[i] = vec[i] + (-f) * vec[r]
        pivots.append(col)
        r += 1
        if r == n:
            break
    # eliminate the remaining rows completely and demand consistency
    for i in range(n, a.rows):
        if any(rows[i][j] for j in range(n)):
            raise AssertionError("elimination left a nonzero redundant row")
        if not _is_zero(vec[i]):
            raise ValueError("inconsistent stacked system: nonzero residual row")
    return vec[:n]


def _is_zero(value):
    probe = getattr(value, "is_zero", None)
    if callable(probe):
        return probe()
    return not value
