"""Property tests: the sparse exact core against the independent oracles.

Small random rational systems are drawn by hypothesis under the
derandomized profile registered in conftest.py, so the examples are the
same on every run.
"""

from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from stokeslib.exactmath import SparseEchelon, sparse_kernel_basis, sparse_rank, sparse_solve

from helpers import oracle_rank, oracle_rref, oracle_solve

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
