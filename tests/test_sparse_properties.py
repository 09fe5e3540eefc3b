"""Property tests: the exact core, sparse and dense, against the independent oracles.

Small random rational systems are drawn by hypothesis under the
derandomized profile registered in conftest.py, so the examples are the
same on every run.
"""

from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from stokeslib.exactmath import (
    Matrix,
    SparseEchelon,
    column_space_complement,
    inverse,
    is_invertible,
    kernel_basis,
    mat_rank,
    mat_solve,
    sparse_kernel_basis,
    sparse_rank,
    sparse_solve,
)

from helpers import oracle_is_invertible, oracle_matmul, oracle_rank, oracle_rref, oracle_solve

# zero about half the time, so that rows are sparse and often dependent
entries = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)),
)


@st.composite
def systems(draw, extra_cols: int = 0):
    """(dense rows, column count) with 0..6 rows over 1..6 columns."""
    ncols = draw(st.integers(1, 6)) + extra_cols
    rows = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols), max_size=6))
    return rows, ncols


def as_sparse(rows, keep_zeros: bool) -> list:
    return [{j: v for j, v in enumerate(row) if keep_zeros or v} for row in rows]


@given(systems(), st.booleans())
def test_sparse_rank_matches_oracle_rank(system, keep_zeros):
    rows, _ = system
    assert sparse_rank(as_sparse(rows, keep_zeros)) == oracle_rank(rows)


@given(systems(), st.booleans())
def test_pivot_rows_are_the_reduced_row_echelon_form(system, keep_zeros):
    rows, ncols = system
    ech = SparseEchelon()
    for row in as_sparse(rows, keep_zeros):
        ech.insert(row)
    rref, pivots = oracle_rref(rows)
    assert sorted(ech.pivot_rows) == pivots
    for r, c in enumerate(pivots):
        assert ech.pivot_rows[c] == {j: v for j, v in enumerate(rref[r]) if v}
    # a row of the system reduces to zero; reduction leaves the row untouched
    for row in as_sparse(rows, keep_zeros):
        before = dict(row)
        assert ech.reduce(row) == {}
        assert row == before


@given(systems())
def test_sparse_kernel_basis_is_the_oracle_null_space_basis(system):
    rows, ncols = system
    rref, pivots = oracle_rref(rows)
    expected = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = {fc: Fraction(1)}
        for r, pc in enumerate(pivots):
            if rref[r][fc]:
                vec[pc] = -rref[r][fc]
        expected.append(vec)
    got = sparse_kernel_basis(as_sparse(rows, False), ncols)
    assert got == expected
    for vec in got:
        for row in rows:
            assert sum(row[j] * v for j, v in vec.items()) == 0


@given(systems(extra_cols=1))
def test_sparse_solve_matches_oracle_solve(system):
    rows, ncols = system
    a_rows = [row[:-1] for row in rows]
    b = [-row[-1] for row in rows]  # the last column holds the negated right-hand side
    got = sparse_solve(as_sparse(rows, False), ncols - 1)
    want = oracle_solve(a_rows, b) if rows else [Fraction(0)] * (ncols - 1)
    if want is None:
        assert got is None
    else:
        assert got is not None
        assert dict(got) == {j: v for j, v in enumerate(want) if v}


# ---------------------------------------------------------------------------
# the dense wrappers read the same pivot rows


def as_matrix(rows, ncols) -> Matrix:
    return Matrix.from_rows(rows) if rows else Matrix(0, ncols, ())


@given(systems())
def test_mat_rank_matches_oracle_rank(system):
    rows, ncols = system
    assert mat_rank(as_matrix(rows, ncols)) == oracle_rank(rows)


@given(systems(extra_cols=1), st.integers(1, 3))
def test_mat_solve_matches_oracle_solve(system, rhs_cols):
    rows, ncols = system
    a_rows = [row[: ncols - 1] for row in rows]
    # the right-hand sides: the last column, then its multiples
    b_rows = [[row[-1] * (k + 1) for k in range(rhs_cols)] for row in rows]
    got = mat_solve(as_matrix(a_rows, ncols - 1), as_matrix(b_rows, rhs_cols))
    want = oracle_solve(a_rows, [row[0] for row in b_rows]) if rows else [Fraction(0)] * (ncols - 1)
    if want is None:
        assert got is None
    else:
        assert got is not None and (got.rows, got.cols) == (ncols - 1, rhs_cols)
        assert [got.at(i, k) for i in range(got.rows) for k in range(rhs_cols)] == [
            v * (k + 1) for v in want for k in range(rhs_cols)
        ]


@given(st.integers(0, 5).flatmap(lambda n: st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)))
def test_inverse_matches_oracle(rows):
    n = len(rows)
    m = as_matrix(rows, n)
    assert is_invertible(m) == oracle_is_invertible(rows)
    if not is_invertible(m):
        return
    inv = inverse(m)
    augmented, pivots = oracle_rref([row + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(rows)])
    assert pivots == list(range(n))
    assert [list(inv.row(i)) for i in range(n)] == [row[n:] for row in augmented]


@given(systems())
def test_kernel_basis_is_the_oracle_null_space_basis(system):
    rows, ncols = system
    rref, pivots = oracle_rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    k = kernel_basis(as_matrix(rows, ncols))
    assert (k.rows, k.cols) == (ncols, len(free))
    for j, fc in enumerate(free):
        want = [Fraction(int(i == fc)) for i in range(ncols)]
        for r, pc in enumerate(pivots):
            want[pc] = -rref[r][fc]
        assert [k.at(i, j) for i in range(ncols)] == want


@given(systems())
def test_column_space_complement_is_the_greedy_oracle_choice(system):
    cols, n = system  # each drawn row is one column of the basis

    def units(idx):
        return [[Fraction(int(k == i)) for k in range(n)] for i in idx]

    chosen = []
    for i in range(n):
        if oracle_rank(cols + units(chosen + [i])) > oracle_rank(cols + units(chosen)):
            chosen.append(i)
    basis = as_matrix(cols, n).transpose() if cols else Matrix(n, 0, ())
    assert column_space_complement(basis) == chosen
    assert len(chosen) == n - oracle_rank(cols)


# ---------------------------------------------------------------------------
# the integer core on wide entries: big numerators and denominators, rows
# that mix int and Fraction values, explicit zeros of both types

wide_entries = st.one_of(
    st.sampled_from([0, Fraction(0)]),
    st.integers(-(10**12), 10**12),
    st.builds(Fraction, st.integers(-(10**12), 10**12), st.integers(1, 10**6)),
)


@st.composite
def wide_systems(draw):
    """(dense rows, column count) with 0..6 rows over 1..6 columns of wide entries."""
    ncols = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(wide_entries, min_size=ncols, max_size=ncols), max_size=6))
    return rows, ncols


@given(wide_systems(), st.booleans())
def test_wide_systems_match_the_oracles(system, keep_zeros):
    rows, ncols = system
    sparse = as_sparse(rows, keep_zeros)
    rref, pivots = oracle_rref(rows)
    assert sparse_rank(sparse) == len(pivots)
    ech = SparseEchelon()
    for row in sparse:
        ech.insert(row)
    read = ech.pivot_rows
    assert sorted(read) == pivots
    for r, c in enumerate(pivots):
        assert read[c] == {j: v for j, v in enumerate(rref[r]) if v}
        assert all(type(v) is Fraction for v in read[c].values())
    kernel = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = {fc: Fraction(1)}
        vec.update((pc, -rref[r][fc]) for r, pc in enumerate(pivots) if rref[r][fc])
        kernel.append(vec)
    assert sparse_kernel_basis(sparse, ncols) == kernel
    # the last column as the negated right-hand side
    got = sparse_solve(sparse, ncols - 1)
    want = oracle_solve([row[:-1] for row in rows], [-row[-1] for row in rows]) if rows else [Fraction(0)] * (ncols - 1)
    if want is None:
        assert got is None
    else:
        assert dict(got) == {j: v for j, v in enumerate(want) if v}


@given(wide_systems())
def test_pivot_rows_cannot_be_changed_through_a_read(system):
    rows, _ = system
    ech = SparseEchelon()
    for row in as_sparse(rows, False):
        ech.insert(row)
    rref, pivots = oracle_rref(rows)
    read = ech.pivot_rows
    for prow in read.values():
        for c in prow:
            prow[c] = Fraction(7)
        prow[99] = Fraction(1)
    read[99] = {99: Fraction(1)}
    assert ech.pivot_rows == {c: {j: v for j, v in enumerate(rref[r]) if v} for r, c in enumerate(pivots)}
    assert ech.rank == len(pivots)


@given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4), st.data())
def test_matmul_matches_the_oracle_product(n, inner, m, data):
    """Including the 0-row, 0-column and 0-inner shapes."""
    a_rows = [data.draw(st.lists(wide_entries, min_size=inner, max_size=inner)) for _ in range(n)]
    b_rows = [data.draw(st.lists(wide_entries, min_size=m, max_size=m)) for _ in range(inner)]
    a = Matrix(n, inner, tuple(Fraction(v) for row in a_rows for v in row))
    b = Matrix(inner, m, tuple(Fraction(v) for row in b_rows for v in row))
    prod = a @ b
    assert (prod.rows, prod.cols) == (n, m)
    assert prod.to_lists() == oracle_matmul(a_rows, b_rows, m)
    assert all(type(v) is Fraction for v in prod.entries)


@given(wide_systems(), st.booleans(), st.randoms(use_true_random=False))
def test_the_batch_solves_do_not_depend_on_the_order_of_the_rows(system, keep_zeros, rnd):
    """sparse_rank, sparse_kernel_basis and sparse_solve insert their rows in
    an order of their own; the reduced row echelon form is unique, so shuffled
    rows give the same rank, the same kernel list and the same solution."""
    rows, ncols = system
    sparse = as_sparse(rows, keep_zeros)
    shuffled = list(sparse)
    rnd.shuffle(shuffled)
    assert sparse_rank(shuffled) == sparse_rank(sparse) == oracle_rank(rows)
    assert sparse_kernel_basis(shuffled, ncols) == sparse_kernel_basis(sparse, ncols)
    got, want = sparse_solve(shuffled, ncols - 1), sparse_solve(sparse, ncols - 1)
    assert (got is None) == (want is None)
    if got is not None:
        assert dict(got) == dict(want)
