from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, strategies as st

from pasmpoly import (
    Matrix,
    Partition,
    corner_sums,
    inverse_corner_sums,
    is_asm,
    is_partial_asm,
    vertex_matrix,
)
from pasmpoly.matrices import _partial_sums, _pretty
from pasmpoly.shapes import enumerate_between

from golden import CORNER_SUMS_422_31, PROFILE_5331, RATIONAL_POINT_422_31
from points import column_partial_sums, row_partial_sums

F = Fraction


def rationals():
    return st.builds(F, st.integers(-20, 20), st.integers(1, 12))


@st.composite
def rational_matrices(draw, max_dim=4):
    m = draw(st.integers(1, max_dim))
    n = draw(st.integers(1, max_dim))
    rows = draw(st.lists(st.lists(rationals(), min_size=n, max_size=n), min_size=m, max_size=m))
    return Matrix(rows)


def reference_pretty(M: Matrix) -> str:
    """The per-entry renderer that _pretty replaced, kept as its oracle:
    every entry right-aligned to the widest one in the matrix."""
    cells = [[str(x) for x in row] for row in M.rows]
    width = max(len(s) for row in cells for s in row)
    return "\n".join(" ".join(s.rjust(width) for s in row) for row in cells)


@st.composite
def matrices_sharing_rows(draw):
    """Matrices of one width n whose rows come from a small pool, so that a
    row recurs in matrices whose widest entry differs."""
    n = draw(st.integers(1, 4))
    entry = st.integers(-1, 1) | st.sampled_from([F(-3, 4), F(1, 2), F(7, 10), F(-12, 5)])
    pool = draw(st.lists(st.tuples(*[entry] * n), min_size=1, max_size=5))
    rows = st.lists(st.sampled_from(pool), min_size=1, max_size=4)
    return draw(st.lists(rows.map(Matrix), min_size=1, max_size=8))


@given(matrices_sharing_rows())
@example([Matrix([[0, 1]]), Matrix([[0, 1], [1, -1]]), Matrix([[F(-3, 4), 0], [0, 1]])])
def test_shared_pretty_cache_matches_the_per_entry_renderer(mats):
    # One cache over the whole list, in either order, as the vertices
    # command shares it; pretty() starts from an empty one.
    cache: dict = {}
    for M in mats + mats[::-1]:
        assert _pretty(M.rows, cache) == reference_pretty(M)
        assert M.pretty() == reference_pretty(M)


def test_matrix_validation():
    with pytest.raises(ValueError):
        Matrix([])
    with pytest.raises(ValueError):
        Matrix([[1, 2], [3]])
    with pytest.raises(TypeError):
        Matrix([[0.5]])
    with pytest.raises(TypeError):
        Matrix([[True]])


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
    assert not is_partial_asm(Matrix([[1, 1]]))  # row partial sum 2
    assert not is_partial_asm(Matrix([[F(1, 2), F(1, 2)]]))  # sums to 1 in halves


def test_is_asm():
    assert is_asm(Matrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
    assert is_asm(Matrix([[0, 1, 0], [1, -1, 1], [0, 1, 0]]))
    assert is_asm(Matrix([[0,0,1,0], [0,1,-1,1], [0,0,1,0], [1,0,0,0]]))
    assert not is_asm(Matrix([[1, 0], [1, 0]]))
    assert not is_asm(Matrix([[1, 0]]))  # not square
    assert not is_asm(Matrix([[1], [0]]))  # not square, though a partial ASM
    assert not is_asm(Matrix([[2, -1], [-1, 2]]))  # line sums 1, not a partial ASM


def entrywise_is_partial_asm(M: Matrix) -> bool:
    """The definition with the entry checks spelled out, kept as an oracle:
    integer entries in {-1,0,1}, then every row and column partial sum in
    {0,1}."""
    if any(x not in (-1, 0, 1) or not isinstance(x, int) for x in M.flatten()):
        return False
    return all(s in (0, 1) for i in range(1, M.m + 1) for s in row_partial_sums(M, i)) and all(
        s in (0, 1) for j in range(1, M.n + 1) for s in column_partial_sums(M, j)
    )


def test_partial_sum_definition_matches_the_entrywise_one():
    # Every matrix with at most 2 rows and 3 columns, or 3 rows and 2, over
    # entries that cover each way an entry can fail.  The squares also
    # check that is_asm needs no row sums.
    for m, n in product(range(1, 4), repeat=2):
        if m * n > 6:
            continue
        for flat in product((-1, 0, 1, 2, F(1, 2)), repeat=m * n):
            M = Matrix([flat[i * n:(i + 1) * n] for i in range(m)])
            expected = entrywise_is_partial_asm(M)
            assert is_partial_asm(M) == expected, M
            square_ones = m == n and all(sum(r) == 1 for r in M.rows + tuple(zip(*M.rows)))
            assert is_asm(M) == (expected and square_ones), M


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
    assert _partial_sums(M.rows) == ([0, 1, 1, 0], [0, 1, 1, 0])


@given(rational_matrices())
def test_partial_sum_kernel_matches_the_line_oracle(M):
    h, v = _partial_sums(M.rows)
    assert h == [s for i in range(1, M.m + 1) for s in row_partial_sums(M, i)]
    assert v == [column_partial_sums(M, j)[i - 1] for i in range(1, M.m + 1) for j in range(1, M.n + 1)]


def test_json_round_trip():
    M = Matrix([[F(7, 10), 1], [-1, F(-3, 10)]])
    data = M.to_json_dict()
    assert data["entries"][0][0] == "7/10"
    assert data["entries"][0][1] == 1
    assert Matrix.from_json_dict(data) == M
    # Python callers may pass tuples for the entries and their rows.
    assert Matrix.from_json_dict({"m": 1, "n": 2, "entries": ((1, 0),)}) == Matrix([[1, 0]])


def test_json_rejects_zero_denominator():
    with pytest.raises(ValueError, match="'1/0'"):
        Matrix.from_json_dict({"m": 1, "n": 2, "entries": [["1/0", 1]]})


def test_json_rejects_inconsistent_dims():
    with pytest.raises(ValueError):
        Matrix.from_json_dict({"m": 3, "n": 2, "entries": [[1, 0], [0, 1]]})


@pytest.mark.parametrize("data, message", [
    ({"entries": ["10", "01"]}, "bad matrix row 1: '10'"),
    ({"entries": [{"1": 0, "0": 1}]}, "bad matrix row 1: {'1': 0, '0': 1}"),
    ({"entries": "12"}, "entries must be a list of rows, got '12'"),
    ({"m": True, "entries": [[1, 0]]}, "m must be an int, got bool"),
    ({"m": "1", "entries": [[1, 0]]}, "m must be an int, got str"),
    ({"n": 2.0, "entries": [[1, 0]]}, "n must be an int, got float"),
    ([[1, 0], [0, 1]], "matrix must be an object with entries, got list"),
], ids=["string rows", "object row", "string entries", "bool m", "string m", "float n", "list"])
def test_json_rejects_rows_that_are_not_lists_and_dims_that_are_not_ints(data, message):
    # A string or an object would be taken apart into a row of its
    # characters or keys, and True == 1 would pass the check of m.
    with pytest.raises(TypeError) as info:
        Matrix.from_json_dict(data)
    assert message in str(info.value)


def test_json_rejects_a_matrix_without_entries():
    with pytest.raises(ValueError, match="matrix has no entries field"):
        Matrix.from_json_dict({"m": 2})
