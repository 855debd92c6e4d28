"""Exact integer/rational matrices and alternating-sign validators.

All arithmetic is exact: entries are Python ints or ``fractions.Fraction``.
Indexing is 1-based with row index increasing downward.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, chain
from operator import add, sub
from typing import Iterable, Sequence

from .shapes import Partition, _int

Scalar = int | Fraction


def _exact(x) -> Scalar:
    if isinstance(x, int) and not isinstance(x, bool):
        return x
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else x
    raise TypeError(f"exact values must be int or Fraction, got {type(x).__name__}")


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

    @classmethod
    def _of_ints(cls, rows: Iterable[Iterable[int]]) -> "Matrix":
        """A matrix from int rows of equal, positive length that the caller
        built itself: no entry is checked."""
        M = cls.__new__(cls)
        M.rows = tuple(map(tuple, rows))
        M.m = len(M.rows)
        M.n = len(M.rows[0])
        return M

    def entry(self, i: int, j: int) -> Scalar:
        """1-based entry access."""
        if not (1 <= i <= self.m and 1 <= j <= self.n):
            raise IndexError(f"entry ({i},{j}) outside {self.m}x{self.n} matrix")
        return self.rows[i - 1][j - 1]

    def flatten(self) -> tuple[Scalar, ...]:
        return tuple(x for row in self.rows for x in row)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Matrix) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"Matrix({[list(r) for r in self.rows]})"

    def pretty(self) -> str:
        return _pretty(self.rows, {})

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
                try:
                    return _exact(Fraction(x))
                except ZeroDivisionError:
                    raise ValueError(f"bad matrix entry {x!r}: zero denominator") from None
            raise TypeError(f"bad matrix entry {x!r}")

        rows = data["entries"]
        if not isinstance(rows, (list, tuple)):
            raise TypeError(f"matrix entries must be a list of rows, got {rows!r}")
        for i, row in enumerate(rows, 1):
            if not isinstance(row, (list, tuple)):
                raise TypeError(f"bad matrix row {i}: {row!r} is not a list")
        mat = cls([[dec(x) for x in row] for row in rows])
        if mat.m != _int(data.get("m", mat.m), "m") or mat.n != _int(data.get("n", mat.n), "n"):
            raise ValueError("entry grid does not match declared dimensions")
        return mat


def _pretty(rows: Sequence[Sequence[Scalar]], cache: dict) -> str:
    """The rows as text, every entry right-aligned to the widest one.

    ``cache`` maps each distinct row to its cell strings and their width,
    and each (row, width) to the row's text, so a list of matrices that
    repeat rows, such as the vertex profiles, can share one dict and pay
    per distinct row, not per entry.
    """
    cells = []
    for row in rows:
        hit = cache.get(row)
        if hit is None:
            strs = [str(x) for x in row]
            hit = cache[row] = (strs, max(map(len, strs)))
        cells.append(hit)
    width = max(w for _, w in cells)
    lines = []
    for row, (strs, _) in zip(rows, cells):
        key = (row, width)
        text = cache.get(key)
        if text is None:
            text = cache[key] = " ".join(s.rjust(width) for s in strs)
        lines.append(text)
    return "\n".join(lines)


def _partial_sums(rows: Sequence[Sequence[Scalar]]) -> tuple[list[Scalar], list[Scalar]]:
    """The row and column partial sums H(i, j) and V(i, j) of a grid given as
    rows, as two flat lists indexed by (i - 1) * n + (j - 1)."""
    h = list(chain.from_iterable(map(accumulate, rows)))
    v = list(chain.from_iterable(accumulate(rows, lambda a, b: list(map(add, a, b)))))
    return h, v


def is_partial_asm(M: Matrix) -> bool:
    """All row and column partial sums in {0,1}, which makes every entry, the
    difference of two consecutive row partial sums, an integer in {-1,0,1}."""
    h, v = _partial_sums(M.rows)
    return all(s in (0, 1) for s in chain(h, v))


def is_asm(M: Matrix) -> bool:
    """Square partial ASM whose every full row and column sums to 1.  Only the
    columns are summed: the n rows then sum to n, and each to 0 or 1."""
    h, v = _partial_sums(M.rows)
    return M.m == M.n and all(s in (0, 1) for s in chain(h, v)) and v[-M.n:] == [1] * M.n


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


def _inverse_corner_row(row: Sequence[Scalar], above: Sequence[Scalar]) -> tuple[Scalar, ...]:
    """One step of :func:`_inverse_corner_rows`: the grid row whose corner-sum
    row is ``row`` under the corner-sum row ``above``, the difference with
    the row above, then with the column to the west."""
    down = list(map(sub, row, above))
    return tuple(map(sub, down, [0, *down[:-1]]))


def _inverse_corner_rows(rows: Sequence[Sequence[Scalar]]) -> tuple[tuple[Scalar, ...], ...]:
    """Finite-difference inverse of :func:`_corner_rows`, one row at a time
    under the corner-sum row above it, or under zeros for the first."""
    return tuple(map(_inverse_corner_row, rows, [(0,) * len(rows[0]), *rows[:-1]]))


def inverse_corner_sums(C: Matrix) -> Matrix:
    """Finite-difference inverse of :func:`corner_sums`."""
    return Matrix(_inverse_corner_rows(C.rows))
