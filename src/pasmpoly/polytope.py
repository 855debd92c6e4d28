"""The polytope of partial alternating sign matrices attached to a skew shape.

The polytope is the convex hull of the profile matrices of all partitions
between lam and nu.  Its inequality description, checked computationally
throughout the test suite, is:

* all row and column partial sums lie in [0, 1];
* the first row and first column sum to exactly 1, all others to 0;
* entries in the lam region (j <= lam_i) are 0;
* entries strictly east of the border strip of nu are 0, i.e.
  X[1][j] = 0 for j > nu_1 + 1 and X[i][j] = 0 for j > nu_{i-1} + 1, i >= 2.

The t-th dilate scales only the inhomogeneous bounds: partial sums in
[0, t], first row/column sums t.

Integer points of a dilate are scanned row by row (the transfer-matrix
method): the state before a row is the vector of column partial sums so
far, the feasible rows out of each (row, state) pair and their next states
are computed once and memoized, and the walk over them yields every point
as a tuple of int rows, in row-major lexicographic order.  At t = 1 the
points are the vertices, so the scan doubles as the census of the
inequality description; only dilates with t >= 2 pass a guardrail.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

from ._linalg import affine_rank, convex_combination_exists
from .matrices import Matrix, vertex_matrix
from .shapes import Cell, SkewShape, enumerate_between

DILATE_SIZE_LIMIT = 8
DILATE_T_LIMIT = 4


class ResourceLimit(ValueError):
    """A guardrail refused an instance: the message names the limit and the
    size of the instance.  A ValueError, distinct from bad input."""


class DilateCount(NamedTuple):
    t: int
    count: int


class PasmPolytope:
    """H- and V-descriptions of the polytope for one skew shape."""

    __slots__ = ("shape", "_vertices", "_zeros")

    def __init__(self, shape: SkewShape):
        self.shape = shape
        self._vertices: list[Matrix] | None = None
        self._zeros: frozenset[Cell] | None = None

    @property
    def m(self) -> int:
        return self.shape.m

    @property
    def n(self) -> int:
        return self.shape.n

    def fixed_zero_cells(self) -> frozenset[Cell]:
        """Cells forced to zero by the lam region and the strip shadow."""
        if self._zeros is None:
            lam, nu = self.shape.lam, self.shape.nu
            zeros = set()
            for i in range(1, self.m + 1):
                for j in range(1, lam.part(i) + 1):
                    zeros.add((i, j))
                east = nu.part(1) + 1 if i == 1 else nu.part(i - 1) + 1
                for j in range(east + 1, self.n + 1):
                    zeros.add((i, j))
            self._zeros = frozenset(zeros)
        return self._zeros

    def free_cells(self) -> tuple[Cell, ...]:
        zeros = self.fixed_zero_cells()
        return tuple(
            (i, j)
            for i in range(1, self.m + 1)
            for j in range(1, self.n + 1)
            if (i, j) not in zeros
        )

    def satisfies_inequalities(self, X: Matrix) -> bool:
        """Exact membership test against the inequality description."""
        if X.m != self.m or X.n != self.n:
            raise ValueError(f"expected a {self.m}x{self.n} matrix, got {X.m}x{X.n}")
        zeros = self.fixed_zero_cells()
        if any(X.entry(i, j) != 0 for (i, j) in zeros):
            return False
        col = [0] * (self.n + 1)
        for i in range(1, self.m + 1):
            row_sum = 0
            for j in range(1, self.n + 1):
                x = X.entry(i, j)
                row_sum += x
                col[j] += x
                if not (0 <= row_sum <= 1) or not (0 <= col[j] <= 1):
                    return False
            if row_sum != (1 if i == 1 else 0):
                return False
        if col[1] != 1:
            return False
        return all(col[j] == 0 for j in range(2, self.n + 1))

    def vertices(self) -> list[Matrix]:
        """Profile matrices of all partitions between lam and nu."""
        if self._vertices is None:
            self._vertices = [
                vertex_matrix(mu, self.m, self.n)
                for mu in enumerate_between(self.shape.lam, self.shape.nu)
            ]
        return list(self._vertices)

    def _scan_rows(self, t: int) -> Iterator[tuple[tuple[int, ...], ...]]:
        """All integer points of the t-dilate, each a tuple of int row tuples,
        in lexicographic (row-major) order.

        Row/column partial sums are kept in [0, t]; row targets are t for
        row 1 and 0 otherwise, column targets t for column 1 and 0 otherwise.
        The state before row i is the vector of column partial sums of rows
        < i.  For each (i, state) the feasible rows i and their next states
        are computed once and memoized, so the walk descends one row, not
        one cell, at a time.
        """
        m, n = self.m, self.n
        zeros = self.fixed_zero_cells()
        free = [[(i, j) not in zeros for j in range(1, n + 1)] for i in range(1, m + 1)]
        # free_after[i][j]: free cells of row i at column j or later (0-based).
        free_after = [[0] * (n + 1) for _ in range(m)]
        for i in range(m):
            for j in range(n - 1, -1, -1):
                free_after[i][j] = free_after[i][j + 1] + free[i][j]
        last_free_row = [0] * n
        for j in range(n):
            for i in range(m):
                if free[i][j]:
                    last_free_row[j] = i + 1
        col_target = [t] + [0] * (n - 1)

        # A column with no free cell at all can never reach a nonzero target.
        if any(last_free_row[j] == 0 and col_target[j] != 0 for j in range(n)):
            return

        def feasible_rows(i: int, cols: tuple[int, ...]) -> list:
            """Rows i (0-based) that extend a point whose column partial sums are
            cols, in lexicographic order, each with its next state."""
            row_target = t if i == 0 else 0
            closes = [i + 1 >= last_free_row[j] for j in range(n)]
            row = [0] * n
            out = []

            def rec(j: int, row_sum: int) -> None:
                if j == n:
                    if row_sum == row_target:
                        out.append((tuple(row), tuple(c + x for c, x in zip(cols, row))))
                    return
                c = cols[j]
                if free[i][j]:
                    choices = range(max(-row_sum, -c), min(t - row_sum, t - c) + 1)
                else:
                    choices = (0,)
                for x in choices:
                    new_row = row_sum + x
                    # The rest of the row can move the partial sum by at most
                    # t per free cell (and not at all if none remain).
                    if abs(row_target - new_row) > free_after[i][j + 1] * t:
                        continue
                    # Once the last free cell of a column is placed, its
                    # partial sum must already equal the column target.
                    if closes[j] and c + x != col_target[j]:
                        continue
                    row[j] = x
                    rec(j + 1, new_row)
                row[j] = 0

            rec(0, 0)
            return out

        transitions: dict[tuple[int, tuple[int, ...]], list] = {}

        def step(i: int, cols: tuple[int, ...]) -> list:
            key = (i, cols)
            rows = transitions.get(key)
            if rows is None:
                rows = transitions[key] = feasible_rows(i, cols)
            return rows

        def walk(i: int, cols: tuple[int, ...], prefix: tuple) -> Iterator:
            for row, after in step(i, cols):
                if i == m - 1:
                    yield prefix + (row,)
                else:
                    yield from walk(i + 1, after, prefix + (row,))

        yield from walk(0, (0,) * n, ())

    def integer_points_brute(self) -> list[Matrix]:
        """Exhaustive integer scan of the inequality system at t = 1."""
        return self.dilate_integer_points(1)

    def dimension(self) -> int:
        """Affine dimension of the vertex set, by exact rank computation."""
        return affine_rank([v.flatten() for v in self.vertices()])

    def _check_dilate(self, t: int) -> None:
        """The one guardrail of the integer-point scan; it refuses only t >= 2.

        After every row the column partial sums are nonnegative and sum to t.
        So at t = 1 the scan has at most n states per row, and its points are
        the vertices, which vertices(), dim and the certificate's round trip
        already list with no guard.  At t = 0 the scan yields one point.
        """
        if t < 0:
            raise ValueError("dilation factor must be nonnegative")
        if t > DILATE_T_LIMIT or (t >= 2 and self.shape.size > DILATE_SIZE_LIMIT):
            raise ResourceLimit(
                f"dilate scan guardrail exceeded: |nu/lam| = {self.shape.size}, t = {t}; "
                f"limits t <= {DILATE_T_LIMIT}, and |nu/lam| <= {DILATE_SIZE_LIMIT} when t >= 2"
            )

    def dilate_lattice_points(self, t: int) -> DilateCount:
        """Number of integer matrices in the t-th dilate, by direct scan."""
        self._check_dilate(t)
        count = sum(1 for _ in self._scan_rows(t))
        return DilateCount(t, count)

    def dilate_integer_points(self, t: int) -> list[Matrix]:
        """The integer matrices of the t-th dilate themselves."""
        self._check_dilate(t)
        return [Matrix(rows) for rows in self._scan_rows(t)]

    def __repr__(self) -> str:
        return f"PasmPolytope({self.shape!r})"


def is_extreme(X: Matrix, others: list[Matrix]) -> bool:
    """True iff X is not a convex combination of the given matrices.

    If <X, X> > <X, V> for every V in others, the functional X strictly
    separates X from their hull, an exact proof that X is extreme.  Every
    other case, and so every False, is decided by the phase-1 simplex.
    """
    if any(o.m != X.m or o.n != X.n for o in others):
        raise ValueError("mixed dimensions")
    if not others:
        return True
    x = X.flatten()
    points = [o.flatten() for o in others]
    norm = sum(a * a for a in x)
    if all(sum(a * b for a, b in zip(x, p)) < norm for p in points):
        return True
    return not convex_combination_exists(x, points)
