"""Exact integer/rational matrices and alternating-sign validators.

All arithmetic is exact: entries are Python ints or ``fractions.Fraction``.
Indexing is 1-based with row index increasing downward.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from operator import add
from typing import Iterable, Sequence

from .shapes import Partition

Scalar = int | Fraction


def _exact(x) -> Scalar:
    if isinstance(x, bool):
        raise TypeError("bool is not a matrix entry")
    if isinstance(x, int):
        return x
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else x
    raise TypeError(f"matrix entries must be int or Fraction, got {type(x).__name__}")


class Matrix:
    """Immutable m x n matrix with exact entries."""

    __slots__ = ("m", "n", "rows")

    def __init__(self, rows: Iterable[Iterable[Scalar]]):
        rs = tuple(tuple(_exact(x) for x in row) for row in rows)
        if not rs or not rs[0]:
            raise ValueError("matrix must have positive dimensions")
        if any(len(r) != len(rs[0]) for r in rs):
            raise ValueError("rows have unequal lengths")
        self.rows: tuple[tuple[Scalar, ...], ...] = rs
        self.m = len(rs)
        self.n = len(rs[0])

    def entry(self, i: int, j: int) -> Scalar:
        """1-based entry access."""
        if not (1 <= i <= self.m and 1 <= j <= self.n):
            raise IndexError(f"entry ({i},{j}) outside {self.m}x{self.n} matrix")
        return self.rows[i - 1][j - 1]

    def is_integral(self) -> bool:
        return all(isinstance(x, int) for row in self.rows for x in row)

    def flatten(self) -> tuple[Scalar, ...]:
        return tuple(x for row in self.rows for x in row)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Matrix) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"Matrix({[list(r) for r in self.rows]})"

    def pretty(self) -> str:
        cells = [[str(x) for x in row] for row in self.rows]
        width = max(len(s) for row in cells for s in row)
        return "\n".join(" ".join(s.rjust(width) for s in row) for row in cells)

    def to_json_dict(self) -> dict:
        def enc(x: Scalar):
            return x if isinstance(x, int) else f"{x.numerator}/{x.denominator}"

        return {"m": self.m, "n": self.n, "entries": [[enc(x) for x in row] for row in self.rows]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "Matrix":
        def dec(x) -> Scalar:
            if isinstance(x, int):
                return x
            if isinstance(x, str):
                return _exact(Fraction(x))
            raise TypeError(f"bad matrix entry {x!r}")

        mat = cls([[dec(x) for x in row] for row in data["entries"]])
        if mat.m != data.get("m", mat.m) or mat.n != data.get("n", mat.n):
            raise ValueError("entry grid does not match declared dimensions")
        return mat


def row_partial_sums(M: Matrix, i: int) -> list[Scalar]:
    """Partial sums of row i through columns 1..n."""
    out, s = [], 0
    for x in M.rows[i - 1]:
        s += x
        out.append(s)
    return out


def column_partial_sums(M: Matrix, j: int) -> list[Scalar]:
    """Partial sums of column j through rows 1..m."""
    out, s = [], 0
    for i in range(M.m):
        s += M.rows[i][j - 1]
        out.append(s)
    return out


def is_partial_asm(M: Matrix) -> bool:
    """Entries in {-1,0,1} with all row and column partial sums in {0,1}."""
    if not M.is_integral():
        return False
    if any(x not in (-1, 0, 1) for row in M.rows for x in row):
        return False
    for i in range(1, M.m + 1):
        if any(s not in (0, 1) for s in row_partial_sums(M, i)):
            return False
    for j in range(1, M.n + 1):
        if any(s not in (0, 1) for s in column_partial_sums(M, j)):
            return False
    return True


def is_asm(M: Matrix) -> bool:
    """Square partial ASM whose every full row and column sums to 1."""
    if M.m != M.n or not is_partial_asm(M):
        return False
    if any(sum(row) != 1 for row in M.rows):
        return False
    return all(sum(M.rows[i][j] for i in range(M.m)) == 1 for j in range(M.n))


def vertex_matrix(mu: Partition, m: int, n: int) -> Matrix:
    """The canonical partial ASM whose nonzeros trace the profile of mu.

    Entry 1 at (1, mu_1+1); for each k with mu_k > mu_{k+1}, entry 1 at
    (k+1, mu_{k+1}+1) and entry -1 at (k+1, mu_k+1).  First row and column
    sum to 1, all other rows and columns sum to 0.
    """
    if len(mu) >= m:
        raise ValueError(f"{mu!r} needs fewer than {m} positive parts")
    if mu.part(1) >= n:
        raise ValueError(f"first part of {mu!r} must be less than {n}")
    rows = [[0] * n for _ in range(m)]
    rows[0][mu.part(1)] = 1
    for k in range(1, m):
        if mu.part(k) > mu.part(k + 1):
            rows[k][mu.part(k + 1)] = 1
            rows[k][mu.part(k)] = -1
    return Matrix(rows)


def _corner_rows(rows: Sequence[Sequence[Scalar]]) -> tuple[tuple[Scalar, ...], ...]:
    """Northwest corner sums of a grid given as rows, as a tuple of rows."""
    out = []
    above = (0,) * len(rows[0])
    for row in rows:
        above = tuple(map(add, accumulate(row), above))
        out.append(above)
    return tuple(out)


def corner_sums(M: Matrix) -> Matrix:
    """Northwest corner sums: entry (i,j) is the sum over rows <= i, cols <= j."""
    return Matrix(_corner_rows(M.rows))


def inverse_corner_sums(C: Matrix) -> Matrix:
    """Finite-difference inverse of :func:`corner_sums`."""
    def c(i: int, j: int) -> Scalar:
        return C.rows[i - 1][j - 1] if i >= 1 and j >= 1 else 0

    return Matrix(
        [
            [c(i, j) - c(i - 1, j) - c(i, j - 1) + c(i - 1, j - 1) for j in range(1, C.n + 1)]
            for i in range(1, C.m + 1)
        ]
    )
