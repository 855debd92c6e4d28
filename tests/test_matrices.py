from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from pasmpoly import (
    Matrix,
    Partition,
    corner_sums,
    inverse_corner_sums,
    is_asm,
    is_partial_asm,
    vertex_matrix,
)
from pasmpoly.matrices import column_partial_sums, row_partial_sums
from pasmpoly.shapes import enumerate_between

from golden import CORNER_SUMS_422_31, PROFILE_5331, RATIONAL_POINT_422_31

F = Fraction


def rationals():
    return st.builds(F, st.integers(-20, 20), st.integers(1, 12))


@st.composite
def rational_matrices(draw, max_dim=4):
    m = draw(st.integers(1, max_dim))
    n = draw(st.integers(1, max_dim))
    rows = draw(st.lists(st.lists(rationals(), min_size=n, max_size=n), min_size=m, max_size=m))
    return Matrix(rows)


def test_matrix_validation():
    with pytest.raises(ValueError):
        Matrix([])
    with pytest.raises(ValueError):
        Matrix([[1, 2], [3]])
    with pytest.raises(TypeError):
        Matrix([[0.5]])


def test_entry_is_one_based():
    M = Matrix([[1, 2], [3, 4]])
    assert M.entry(1, 2) == 2
    assert M.entry(2, 1) == 3
    with pytest.raises(IndexError):
        M.entry(0, 1)


def test_is_partial_asm():
    assert is_partial_asm(PROFILE_5331)
    assert is_partial_asm(Matrix([[1]]))
    assert not is_partial_asm(Matrix([[-1]]))
    assert is_partial_asm(Matrix([[0, 1], [1, -1]]))
    assert not is_partial_asm(Matrix([[2]]))
    assert not is_partial_asm(Matrix([[1, -1], [0, 0]]))  # column partial sum -1
    assert not is_partial_asm(Matrix([[0, -1], [1, 1]]))  # negative partial sum


def test_is_asm():
    assert is_asm(Matrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
    assert is_asm(Matrix([[0, 1, 0], [1, -1, 1], [0, 1, 0]]))
    assert is_asm(Matrix([[0,0,1,0], [0,1,-1,1], [0,0,1,0], [1,0,0,0]]))
    assert not is_asm(Matrix([[1, 0], [1, 0]]))
    assert not is_asm(Matrix([[1, 0]]))  # not square


def test_vertex_matrix_golden():
    assert vertex_matrix(Partition([5, 3, 3, 1]), 5, 7) == PROFILE_5331
    assert vertex_matrix(Partition(), 2, 2) == Matrix([[1, 0], [0, 0]])
    assert vertex_matrix(Partition([1]), 2, 2) == Matrix([[0, 1], [1, -1]])


def test_vertex_matrix_rejects_oversized():
    with pytest.raises(ValueError):
        vertex_matrix(Partition([2]), 2, 2)
    with pytest.raises(ValueError):
        vertex_matrix(Partition([1, 1]), 2, 2)


def test_vertex_matrix_row_column_sums_exhaustive():
    # For every mu inside (n-1)^(m-1) with m, n <= 5: a partial ASM whose
    # first row and column sum to 1 and all others to 0, with at most one 1
    # and one -1 per line, and corner sums equal to the filter indicator
    # [j > mu_i].
    for m in range(1, 6):
        for n in range(1, 6):
            box = Partition([n - 1] * (m - 1))
            for mu in enumerate_between(Partition(), box):
                M = vertex_matrix(mu, m, n)
                assert is_partial_asm(M)
                for i in range(1, m + 1):
                    assert sum(M.rows[i - 1]) == (1 if i == 1 else 0)
                for j in range(1, n + 1):
                    assert sum(M.rows[i][j - 1] for i in range(m)) == (1 if j == 1 else 0)
                for row in M.rows:
                    assert row.count(1) <= 1 and row.count(-1) <= 1
                for j in range(n):
                    col = [M.rows[i][j] for i in range(m)]
                    assert col.count(1) <= 1 and col.count(-1) <= 1
                C = corner_sums(M)
                for i in range(1, m + 1):
                    for j in range(1, n + 1):
                        assert C.entry(i, j) == (1 if j > mu.part(i) else 0)


def test_corner_sums_golden():
    assert corner_sums(RATIONAL_POINT_422_31) == CORNER_SUMS_422_31
    zero = Matrix([[0, 0], [0, 0]])
    assert corner_sums(zero) == zero
    assert corner_sums(Matrix([[0, 1], [1, -1]])) == Matrix([[0, 1], [1, 1]])


def test_inverse_corner_sums_golden():
    assert inverse_corner_sums(CORNER_SUMS_422_31) == RATIONAL_POINT_422_31
    assert inverse_corner_sums(Matrix([[1, 1], [1, 1]])) == Matrix([[1, 0], [0, 0]])
    assert inverse_corner_sums(Matrix([[0, 1], [1, 1]])) == Matrix([[0, 1], [1, -1]])


@given(rational_matrices())
def test_corner_sum_round_trip(M):
    assert inverse_corner_sums(corner_sums(M)) == M
    assert corner_sums(inverse_corner_sums(M)) == M


def test_partial_sum_helpers():
    M = Matrix([[0, 1], [1, -1]])
    assert row_partial_sums(M, 2) == [1, 0]
    assert column_partial_sums(M, 2) == [1, 0]


def test_json_round_trip():
    M = Matrix([[F(7, 10), 1], [-1, F(-3, 10)]])
    data = M.to_json_dict()
    assert data["entries"][0][0] == "7/10"
    assert data["entries"][0][1] == 1
    assert Matrix.from_json_dict(data) == M


def test_json_rejects_inconsistent_dims():
    with pytest.raises(ValueError):
        Matrix.from_json_dict({"m": 3, "n": 2, "entries": [[1, 0], [0, 1]]})
