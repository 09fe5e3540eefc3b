"""Exact rational and Gaussian-rational arithmetic and linear algebra over Q.

Rationals are ``fractions.Fraction`` throughout; matrices are immutable
row-major tuples of Fractions, multiplied by integer dot products.  One
elimination serves all of the linear algebra: ``SparseEchelon`` keeps its
pivot rows as primitive integer rows in reduced row echelon form up to a
positive factor per row, and rank, solve, inverse, kernel and column-space
complement, dense or sparse, are read off the normalised pivot rows; the
sparse batch solves insert their rows bottom-up.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Collection, Iterable, Iterator, Sequence


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
        one, zero = Fraction(1), Fraction(0)
        return Matrix(n, n, tuple(one if i == j else zero for i in range(n) for j in range(n)))

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
        lines = [_integer_line(self.row(i)) for i in range(self.rows)]
        cols = [_integer_line(other.entries[j :: other.cols]) for j in range(other.cols)]
        ent = tuple(Fraction(sum(map(mul, x, y)), dx * dy) for x, dx in lines for y, dy in cols)
        return Matrix(self.rows, other.cols, ent)

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

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.entries)

    def hstack(self, other: "Matrix") -> "Matrix":
        return hstack_all([self, other], self.rows)

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "Matrix":
        ent = tuple(self.at(i, j) for i in row_idx for j in col_idx)
        return Matrix(len(row_idx), len(col_idx), ent)

    def __repr__(self) -> str:
        body = "; ".join(" ".join(rat_str(x) for x in self.row(i)) for i in range(self.rows))
        return f"Matrix({self.rows}x{self.cols}: {body})"


def hstack_all(mats: Sequence[Matrix], rows: int) -> Matrix:
    """The matrices of ``rows`` rows side by side, in one pass."""
    if any(m.rows != rows for m in mats):
        raise ValueError("row mismatch")
    return Matrix(rows, sum(m.cols for m in mats), tuple(x for i in range(rows) for m in mats for x in m.row(i)))


def block_diag(mats: Sequence[Matrix]) -> Matrix:
    cols = sum(m.cols for m in mats)
    ent, c0 = (), 0
    for m in mats:
        ent += hstack_all([Matrix.zeros(m.rows, c0), m, Matrix.zeros(m.rows, cols - c0 - m.cols)], m.rows).entries
        c0 += m.cols
    return Matrix(sum(m.rows for m in mats), cols, ent)


def _integer_line(vals: Collection) -> tuple[list[int], int]:
    """(integer numerators over d, d) for the lcm d of the denominators of vals."""
    d = 1
    for v in vals:
        if v.denominator != 1:
            d = lcm(d, v.denominator)
    return [v.numerator * (d // v.denominator) for v in vals], d


def _primitive(row: dict[int, int]) -> dict[int, int]:
    """row divided by the gcd of its entries."""
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            return row
    return {c: v // g for c, v in row.items()} if g else row


def _eliminate(row: dict[int, int], c: int, pivot: dict[int, int]) -> None:
    """row <- row*(d/g) - (a/g)*pivot in place, with a = row[c], d = pivot[c] > 0
    and g = gcd(a, d): column c cancels and row is scaled by d/g > 0."""
    a, d = row[c], pivot[c]
    g = gcd(a, d)
    if d != g:
        for j in row:
            row[j] *= d // g
    k = a // g
    for j, v in pivot.items():
        new = row.get(j, 0) - k * v
        if new:
            row[j] = new
        else:
            del row[j]


class SparseEchelon:
    """Incremental exact row echelon over Q with dict-of-column rows.

    Rows are inserted one at a time, reduced against the recorded pivots;
    nonzero remainders become new pivots.  Each pivot row is stored as a
    primitive integer row, positive at its lead, and the stored rows are
    the reduced row echelon form of the rows inserted so far up to one
    positive factor per row, so every answer read off ``pivot_rows`` is
    unique.
    """

    def __init__(self):
        self._rows: dict[int, dict[int, int]] = {}
        # column -> leads of the pivot rows that may hold it (a superset)
        self._holders: dict[int, set[int]] = {}

    @property
    def pivot_rows(self) -> dict[int, dict[int, Fraction]]:
        """The reduced row echelon form, keyed by lead column; built afresh on each read."""
        return {lead: {c: Fraction(v, row[lead]) for c, v in row.items()} for lead, row in self._rows.items()}

    def reduce(self, row: dict) -> dict[int, int]:
        """Eliminate every pivot-column entry, not only the leading one.

        Returns ``{}`` exactly when row lies in the span of the inserted
        rows; a nonzero remainder is given only up to a nonzero factor, as
        a primitive integer row.  Pivot rows are kept fully reduced (each
        is zero on every other pivot column), so eliminating one pivot
        never brings in another: one pass over the row's pivot columns
        suffices.
        """
        nums, _ = _integer_line(row.values())
        out = _primitive({c: v for c, v in zip(row, nums) if v})
        pivots = self._rows
        for hit in [c for c in out if c in pivots]:
            _eliminate(out, hit, pivots[hit])
        return _primitive(out)

    def insert(self, row: dict) -> int | None:
        """Reduce and record; returns the new pivot column or None."""
        rem = self.reduce(row)
        if not rem:
            return None
        lead = min(rem)
        if rem[lead] < 0:
            rem = {c: -v for c, v in rem.items()}
        rows, holders = self._rows, self._holders
        # keep the earlier pivot rows that hold the new lead reduced against it
        hit = [q for q in holders.pop(lead, ()) if lead in rows[q]]
        for q in hit:
            _eliminate(rows[q], lead, rem)
            rows[q] = _primitive(rows[q])
        hit.append(lead)
        rows[lead] = rem
        for c in rem:
            if c != lead:
                holders.setdefault(c, set()).update(hit)
        return lead

    @property
    def rank(self) -> int:
        return len(self._rows)


def _echelon(rows: Iterable[dict]) -> SparseEchelon:
    ech = SparseEchelon()
    for row in rows:
        ech.insert(row)
    return ech


def _matrix_rows(m: Matrix) -> Iterator[dict]:
    return (dict(enumerate(m.row(i))) for i in range(m.rows))


def _bottom_up(rows: Iterable[dict]) -> SparseEchelon:
    """The echelon of rows inserted bottom-up: in decreasing order of their
    least nonzero column, ties broken by the next one, and so on.  A stored
    pivot row holds no column left of its lead, so a row whose lead lies left
    of every stored lead back-reduces nothing.  The reduced row echelon form,
    and every answer read off it, is the same in any order; the order of
    ``pivot_rows`` is not."""
    return _echelon(sorted(rows, key=lambda row: sorted(c for c, v in row.items() if v), reverse=True))


def sparse_rank(rows: Iterable[dict]) -> int:
    return _bottom_up(rows).rank


def sparse_kernel_basis(rows: Iterable[dict], ncols: int) -> list[dict[int, Fraction]]:
    """Kernel vectors (as sparse dicts) of the system with the given rows,
    one per free column in increasing order."""
    pivots = _bottom_up(rows).pivot_rows
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
    set to zero.  Returns the (column, value) pairs of a solution, or None;
    their order is not part of the answer.
    """
    pivots = _bottom_up(rows).pivot_rows
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
