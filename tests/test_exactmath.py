import random
from fractions import Fraction

import pytest

from stokeslib import Matrix, inverse, is_invertible, kernel_basis, mat_rank, mat_solve, solve_column
from stokeslib.exactmath import (
    GaussianRational,
    rat_str,
    sparse_kernel_basis,
    sparse_rank,
    sparse_solve,
)

from helpers import mat_rows, matrix_sparse_rows, oracle_rank, oracle_solve


def test_rank_identity_and_degenerate():
    assert mat_rank(Matrix.identity(2)) == 2
    assert mat_rank(Matrix.from_rows([[1, 1], [0, 0]])) == 1
    assert mat_rank(Matrix.zeros(3, 4)) == 0
    assert mat_rank(Matrix(0, 5, ())) == 0


def test_rank_agrees_with_independent_elimination():
    rng = random.Random(42)
    for _ in range(40):
        r, c = rng.randint(1, 5), rng.randint(1, 5)
        m = Matrix(r, c, tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(r * c)))
        assert mat_rank(m) == oracle_rank(mat_rows(m))
        assert mat_rank(m) == mat_rank(m.transpose())


def test_random_integer_5x5_rank_against_oracle():
    rng = random.Random(7)
    for _ in range(20):
        m = Matrix(5, 5, tuple(Fraction(rng.randint(-10, 10)) for _ in range(25)))
        assert mat_rank(m) == oracle_rank(mat_rows(m))


def test_solve_identity_and_inconsistent():
    b = Matrix.from_rows([[3], [-2], [7]])
    assert mat_solve(Matrix.identity(3), b).entries == b.entries
    assert mat_solve(Matrix.from_rows([[1, 0], [1, 0]]), Matrix.from_rows([[1], [2]])) is None
    assert solve_column(Matrix.from_rows([[1, 0], [1, 0]]), [1, 2]) is None


def test_solve_residual_exact_on_consistent_systems():
    rng = random.Random(3)
    for _ in range(30):
        r, c = rng.randint(1, 5), rng.randint(1, 5)
        a = Matrix(r, c, tuple(Fraction(rng.randint(-4, 4)) for _ in range(r * c)))
        x0 = Matrix(c, 1, tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(c)))
        b = a @ x0
        x = mat_solve(a, b)
        assert x is not None
        assert (a @ x).entries == b.entries
        sol = oracle_solve(mat_rows(a), [b.at(i, 0) for i in range(r)])
        assert sol is not None


def test_solve_dimension_mismatch():
    with pytest.raises(ValueError):
        mat_solve(Matrix.identity(2), Matrix.from_rows([[1], [2], [3]]))


def test_is_invertible_cases():
    assert is_invertible(Matrix.identity(3))
    assert not is_invertible(Matrix.zeros(2, 3))
    # determinant zero by hand: 2*2 - 1*4 = 0
    assert not is_invertible(Matrix.from_rows([[2, 1], [4, 2]]))
    assert is_invertible(Matrix(0, 0, ()))


def test_inverse_and_kernel():
    m = Matrix.from_rows([[2, 1], [1, 1]])
    inv = inverse(m)
    assert (m @ inv).entries == Matrix.identity(2).entries
    k = kernel_basis(Matrix.from_rows([[1, 1, 0]]))
    assert k.cols == 2
    prod = Matrix.from_rows([[1, 1, 0]]) @ k
    assert prod.is_zero()


def test_sparse_matches_dense():
    rng = random.Random(11)
    for _ in range(60):
        r, c = rng.randint(1, 6), rng.randint(1, 6)
        m = Matrix(r, c, tuple(Fraction(rng.randint(-2, 2)) for _ in range(r * c)))
        rows = matrix_sparse_rows(m)
        assert sparse_rank(rows) == mat_rank(m)
        ker = sparse_kernel_basis(rows, c)
        assert len(ker) == c - mat_rank(m)
        for vec in ker:
            for i in range(r):
                assert sum(m.at(i, j) * vec.get(j, Fraction(0)) for j in range(c)) == 0


def test_sparse_solve_consistent_and_not():
    # x + y = 2, x - y = 0  ->  x = y = 1
    rows = [{0: Fraction(1), 1: Fraction(1), 2: Fraction(-2)}, {0: Fraction(1), 1: Fraction(-1)}]
    sol = dict(sparse_solve(rows, 2))
    assert sol == {0: Fraction(1), 1: Fraction(1)}
    bad = [{0: Fraction(1), 1: Fraction(-1)}, {0: Fraction(1), 1: Fraction(-2)}, {1: Fraction(-1)}]
    # x = 1 and x = 2 and ... build genuinely inconsistent: x - 1 = 0, x - 2 = 0
    bad = [{0: Fraction(1), 1: Fraction(-1)}, {0: Fraction(1), 1: Fraction(-2)}]
    assert sparse_solve(bad, 1) is None


def test_gaussian_rational_arithmetic():
    i = GaussianRational.of(0, 1)
    one = GaussianRational.of(1)
    assert (i * i) == GaussianRational.of(-1)
    assert i.conj() == GaussianRational.of(0, -1)
    z = GaussianRational.of(Fraction(1, 2), Fraction(-3, 4))
    assert (z - z).is_zero()
    assert z.power(2) == z * z
    assert z.power(0) == one


def test_rational_strings():
    assert rat_str(Fraction(3, 1)) == "3"
    assert rat_str(Fraction(-3, 4)) == "-3/4"
