"""Exact rational and Gaussian-rational arithmetic and linear algebra over Q.

Rationals are ``fractions.Fraction`` throughout; matrices are immutable
row-major tuples of Fractions.  One elimination serves all of the linear
algebra: ``SparseEchelon`` keeps its pivot rows in reduced row echelon
form, and rank, solve, inverse, kernel and column-space complement, dense
or sparse, are read off those pivot rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence


def rat(x) -> Fraction:
    """Coerce ints, strings like ``"3/4"``, and Fractions to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {x!r}") from None
    raise TypeError(f"not an exact rational: {x!r}")


def rat_str(q: Fraction) -> str:
    """Canonical string form: ``p/q``, denominator omitted when 1."""
    q = rat(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


@dataclass(frozen=True)
class GaussianRational:
    """An element of Q(i), stored as an exact (re, im) pair."""

    re: Fraction
    im: Fraction

    def __post_init__(self):
        object.__setattr__(self, "re", rat(self.re))
        object.__setattr__(self, "im", rat(self.im))

    @staticmethod
    def of(re, im=0) -> "GaussianRational":
        return GaussianRational(rat(re), rat(im))

    def __add__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __mul__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def conj(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def power(self, n: int) -> "GaussianRational":
        if n < 0:
            raise ValueError("negative powers not needed")
        out = GaussianRational.of(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __repr__(self) -> str:
        return f"GaussianRational({rat_str(self.re)}, {rat_str(self.im)})"


@dataclass(frozen=True)
class Matrix:
    """Dense exact matrix over Q.  ``entries`` is row-major."""

    rows: int
    cols: int
    entries: tuple[Fraction, ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative dimensions")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entries length must be rows*cols")

    @staticmethod
    def from_rows(rows: Sequence[Sequence]) -> "Matrix":
        r = len(rows)
        c = len(rows[0]) if r else 0
        ent = []
        for row in rows:
            if len(row) != c:
                raise ValueError("ragged rows")
            ent.extend(rat(x) for x in row)
        return Matrix(r, c, tuple(ent))

    @staticmethod
    def zeros(rows: int, cols: int) -> "Matrix":
        return Matrix(rows, cols, (Fraction(0),) * (rows * cols))

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix(n, n, tuple(Fraction(1 if i == j else 0) for i in range(n) for j in range(n)))

    def at(self, i: int, j: int) -> Fraction:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_lists(self) -> list[list[Fraction]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self) -> "Matrix":
        return Matrix(self.cols, self.rows, tuple(self.at(i, j) for j in range(self.cols) for i in range(self.rows)))

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        ent = []
        for i in range(self.rows):
            ri = self.row(i)
            for j in range(other.cols):
                s = Fraction(0)
                for k in range(self.cols):
                    a = ri[k]
                    if a:
                        s += a * other.entries[k * other.cols + j]
                ent.append(s)
        return Matrix(self.rows, other.cols, tuple(ent))

    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return Matrix(self.rows, self.cols, tuple(a + b for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return Matrix(self.rows, self.cols, tuple(a - b for a, b in zip(self.entries, other.entries)))

    def __neg__(self) -> "Matrix":
        return Matrix(self.rows, self.cols, tuple(-a for a in self.entries))

    def scale(self, c) -> "Matrix":
        c = rat(c)
        return Matrix(self.rows, self.cols, tuple(c * a for a in self.entries))

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.entries)

    def hstack(self, other: "Matrix") -> "Matrix":
        if self.rows != other.rows:
            raise ValueError("row mismatch")
        ent = []
        for i in range(self.rows):
            ent.extend(self.row(i))
            ent.extend(other.row(i))
        return Matrix(self.rows, self.cols + other.cols, tuple(ent))

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "Matrix":
        ent = tuple(self.at(i, j) for i in row_idx for j in col_idx)
        return Matrix(len(row_idx), len(col_idx), ent)

    def __repr__(self) -> str:
        body = "; ".join(" ".join(rat_str(x) for x in self.row(i)) for i in range(self.rows))
        return f"Matrix({self.rows}x{self.cols}: {body})"


def hstack_all(mats: Sequence[Matrix], rows: int) -> Matrix:
    out = Matrix.zeros(rows, 0)
    for m in mats:
        out = out.hstack(m)
    return out


def block_diag(mats: Sequence[Matrix]) -> Matrix:
    rows = sum(m.rows for m in mats)
    cols = sum(m.cols for m in mats)
    out = [[Fraction(0)] * cols for _ in range(rows)]
    r0 = c0 = 0
    for m in mats:
        for i in range(m.rows):
            for j in range(m.cols):
                out[r0 + i][c0 + j] = m.at(i, j)
        r0 += m.rows
        c0 += m.cols
    return Matrix.from_rows(out) if rows else Matrix(0, cols, ())


def _subtract_multiple(row: dict[int, Fraction], factor: Fraction, pivot: dict[int, Fraction]) -> None:
    """row -= factor * pivot in place, dropping the entries that cancel."""
    for c, v in pivot.items():
        new = row.get(c, 0) - factor * v
        if new:
            row[c] = new
        else:
            del row[c]


class SparseEchelon:
    """Incremental exact row echelon over Q with dict-of-column rows.

    Rows are inserted one at a time, reduced against the recorded pivots;
    nonzero remainders are normalized and become new pivots.  The pivot
    rows are always the reduced row echelon form of the rows inserted so
    far, so every answer read off them is unique.
    """

    def __init__(self):
        self.pivot_rows: dict[int, dict[int, Fraction]] = {}

    def reduce(self, row: dict[int, Fraction]) -> dict[int, Fraction]:
        """Eliminate every pivot-column entry, not only the leading one.

        Pivot rows are kept fully reduced (each is zero on every other
        pivot column), so eliminating one pivot never brings in another:
        one pass over the row's pivot columns suffices.
        """
        row = {c: v for c, v in row.items() if v}
        pivots = self.pivot_rows
        for hit in [c for c in row if c in pivots]:
            _subtract_multiple(row, row[hit], pivots[hit])
        return row

    def insert(self, row: dict[int, Fraction]) -> int | None:
        """Reduce and record; returns the new pivot column or None."""
        rem = self.reduce(row)
        if not rem:
            return None
        lead = min(rem)
        inv = rem[lead]
        pivot = self.pivot_rows[lead] = {c: v / inv for c, v in rem.items()}
        # keep earlier pivot rows reduced against the new one
        for prow in [p for p in self.pivot_rows.values() if lead in p and p is not pivot]:
            _subtract_multiple(prow, prow[lead], pivot)
        return lead

    @property
    def rank(self) -> int:
        return len(self.pivot_rows)


def _echelon(rows: Iterable[dict]) -> SparseEchelon:
    ech = SparseEchelon()
    for row in rows:
        ech.insert(row)
    return ech


def _matrix_rows(m: Matrix) -> Iterator[dict]:
    return (dict(enumerate(m.row(i))) for i in range(m.rows))


def sparse_rank(rows: Iterable[dict]) -> int:
    return _echelon(rows).rank


def sparse_kernel_basis(rows: Iterable[dict], ncols: int) -> list[dict[int, Fraction]]:
    """Kernel vectors (as sparse dicts) of the system with the given rows,
    one per free column in increasing order."""
    pivots = _echelon(rows).pivot_rows
    free = [c for c in range(ncols) if c not in pivots]
    out = []
    for fc in free:
        vec = {fc: Fraction(1)}
        for pc, prow in pivots.items():
            v = prow.get(fc)
            if v:
                vec[pc] = -v
        out.append(vec)
    return out


def sparse_solve(rows: Iterable[dict], rhs_col: int) -> list[tuple[int, Fraction]] | None:
    """Solve an affine system given rows over columns [0..rhs_col] where the
    column ``rhs_col`` holds the negated right-hand side; free variables are
    set to zero.  Returns the (column, value) pairs of a solution, or None.
    """
    pivots = _echelon(rows).pivot_rows
    if rhs_col in pivots:
        return None
    return [(pc, -prow[rhs_col]) for pc, prow in pivots.items() if rhs_col in prow]


def mat_rank(m: Matrix) -> int:
    """Rank over Q."""
    return _echelon(_matrix_rows(m)).rank


def mat_solve(a: Matrix, b: Matrix) -> Matrix | None:
    """One exact solution of a*x = b (b may carry several columns), or None.

    Any solution is acceptable for underdetermined systems; free variables
    are set to zero.  The system is inconsistent iff a pivot of [a | b]
    lands in a column of b.
    """
    if a.rows != b.rows:
        raise ValueError("dimension mismatch between matrix and right-hand side")
    nc = a.cols
    pivots = _echelon(dict(enumerate(a.row(i) + b.row(i))) for i in range(a.rows)).pivot_rows
    if any(c >= nc for c in pivots):
        return None
    zero = Fraction(0)
    ent = []
    for c in range(nc):
        prow = pivots.get(c, {})
        ent.extend(prow.get(nc + j, zero) for j in range(b.cols))
    return Matrix(nc, b.cols, tuple(ent))


def solve_column(a: Matrix, b: Sequence) -> list[Fraction] | None:
    """Column-vector form of :func:`mat_solve`."""
    bm = Matrix.from_rows([[x] for x in b]) if len(b) else Matrix(0, 1, ())
    sol = mat_solve(a, bm)
    return None if sol is None else [sol.at(i, 0) for i in range(sol.rows)]


def is_invertible(m: Matrix) -> bool:
    """True iff m is square of full rank."""
    return m.rows == m.cols and mat_rank(m) == m.rows


def inverse(m: Matrix) -> Matrix:
    if m.rows != m.cols:
        raise ValueError("not square")
    sol = mat_solve(m, Matrix.identity(m.rows))
    if sol is None:
        raise ValueError("singular matrix")
    return sol


def kernel_basis(m: Matrix) -> Matrix:
    """Columns form a basis of ker(m).  Shape cols x nullity."""
    vecs = sparse_kernel_basis(_matrix_rows(m), m.cols)
    zero = Fraction(0)
    return Matrix(m.cols, len(vecs), tuple(v.get(i, zero) for i in range(m.cols) for v in vecs))


def column_space_complement(basis: Matrix) -> list[int]:
    """Indices of standard vectors extending col(basis) to the full space.

    Greedy in increasing index: e_i is kept iff it is independent of
    col(basis) and of the vectors kept before it.
    """
    ech = _echelon(dict(enumerate(basis.entries[j :: basis.cols])) for j in range(basis.cols))
    return [i for i in range(basis.rows) if ech.insert({i: Fraction(1)}) is not None]
