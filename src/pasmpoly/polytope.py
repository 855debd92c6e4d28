"""The polytope of partial alternating sign matrices attached to a skew shape.

The polytope is the convex hull of the profile matrices of all partitions
between lam and nu.  It is a face of the partial ASM polytope: every row
partial sum H(i, j) = X[i][1] + ... + X[i][j] and every column partial sum
V(i, j) = X[1][j] + ... + X[i][j] lies in [0, 1], and the face pins some of
them to 0 or to 1.  With lam_0 = nu_0 = n and [.] equal to 1 when the
condition holds and 0 otherwise, its inequality description is

* H(i, j) in [ [nu_i < j <= lam_{i-1}], [lam_i < j <= nu_{i-1}] ];
* V(i, j) in [ [lam_i = nu_i and j = nu_i + 1], [lam_i < j <= nu_i + 1] ].

These bounds are the face labeling.  PasmPolytope keeps them as one table,
(lo, hi) per grid edge, which the membership test, the integer-point scan
and facelattice.face_labeling all read.  They fix the line sums
(H(1, n) = V(m, 1) = 1, the other full sums 0) and the zeros in the lam
region and east of the border strip of nu.  The test suite pins them to
the paper's form: those fixed zeros, partial sums in [0, 1] and the line
sums.

The t-th dilate scales the bounds by t.  Its integer points are scanned row
by row (the transfer-matrix method): the state before a row is the vector
of column partial sums so far, the feasible rows out of each (row, state)
pair and their next states are computed once and memoized, and the walk
over them yields every point as a tuple of int rows, in row-major
lexicographic order.  At t = 1 the points are the vertices, so the scan
doubles as the census of the inequality description; only dilates with
t >= 2 pass a guardrail.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

from ._linalg import affine_rank, convex_combination_exists
from .matrices import Matrix, Scalar, column_partial_sums, row_partial_sums, vertex_matrix
from .shapes import Cell, SkewShape, enumerate_between

DILATE_SIZE_LIMIT = 8
DILATE_T_LIMIT = 4

# A grid edge: ("H", i, j) carries the row-i partial sum through column j,
# ("V", i, j) the column-j partial sum through row i.
Edge = tuple[str, int, int]


class ResourceLimit(ValueError):
    """A guardrail refused an instance: the message names the limit and the
    size of the instance.  A ValueError, distinct from bad input."""


class DilateCount(NamedTuple):
    t: int
    count: int


class PasmPolytope:
    """H- and V-descriptions of the polytope for one skew shape."""

    __slots__ = ("shape", "_vertices", "_table")

    def __init__(self, shape: SkewShape):
        self.shape = shape
        self._vertices: list[Matrix] | None = None
        self._table: dict[Edge, tuple[int, int]] | None = None

    @property
    def m(self) -> int:
        return self.shape.m

    @property
    def n(self) -> int:
        return self.shape.n

    def _bounds(self) -> dict[Edge, tuple[int, int]]:
        """The inequality description, in the closed form of the module
        docstring: (lo, hi) for the partial sum on each grid edge,
        horizontals first, each in row-major order."""
        if self._table is None:
            m, n = self.m, self.n
            lam = [n] + [self.shape.lam.part(i) for i in range(1, m + 1)]
            nu = [n] + [self.shape.nu.part(i) for i in range(1, m + 1)]
            table: dict[Edge, tuple[int, int]] = {}
            for i in range(1, m + 1):
                for j in range(1, n + 1):
                    table["H", i, j] = (int(nu[i] < j <= lam[i - 1]),
                                        int(lam[i] < j <= nu[i - 1]))
            for i in range(1, m + 1):
                for j in range(1, n + 1):
                    table["V", i, j] = (int(lam[i] == nu[i] and j == nu[i] + 1),
                                        int(lam[i] < j <= nu[i] + 1))
            self._table = table
        return self._table

    def free_cells(self) -> tuple[Cell, ...]:
        """The cells of nu/lam and the border strip of nu, in row-major order:
        the entries the inequality description does not fix to zero."""
        return tuple(sorted(set(self.shape.cells()) | self.shape.border_strip()))

    def satisfies_inequalities(self, X: Matrix) -> bool:
        """Exact membership test against the inequality description."""
        if X.m != self.m or X.n != self.n:
            raise ValueError(f"expected a {self.m}x{self.n} matrix, got {X.m}x{X.n}")
        sums: dict[Edge, Scalar] = {}
        for i in range(1, self.m + 1):
            for j, s in enumerate(row_partial_sums(X, i), start=1):
                sums["H", i, j] = s
        for j in range(1, self.n + 1):
            for i, s in enumerate(column_partial_sums(X, j), start=1):
                sums["V", i, j] = s
        return all(lo <= sums[edge] <= hi for edge, (lo, hi) in self._bounds().items())

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

        Each entry is drawn from the range that keeps its row partial sum and
        its column partial sum within t times their bounds; the bounds on the
        full line sums close every row and column.  The state before row i
        is the vector of column partial sums of rows < i.  For each (i, state)
        the feasible rows i and their next states are computed once and
        memoized, so the walk descends one row, not one cell, at a time.
        """
        m, n = self.m, self.n
        bounds = self._bounds()
        # scaled[i][k][j]: t * (lo_H, hi_H, lo_V, hi_V)[k] at (i + 1, j + 1).
        scaled = [
            [[t * bounds[kind, i, j][side] for j in range(1, n + 1)]
             for kind in "HV" for side in (0, 1)]
            for i in range(1, m + 1)
        ]

        def feasible_rows(i: int, cols: tuple[int, ...]) -> list:
            """Rows i (0-based) that extend a point whose column partial sums are
            cols, in lexicographic order, each with its next state."""
            lo_h, hi_h, lo_v, hi_v = scaled[i]
            row = [0] * n
            out = []

            def rec(j: int, row_sum: int) -> None:
                if j == n:
                    out.append((tuple(row), tuple(c + x for c, x in zip(cols, row))))
                    return
                c = cols[j]
                for x in range(max(lo_h[j] - row_sum, lo_v[j] - c),
                               min(hi_h[j] - row_sum, hi_v[j] - c) + 1):
                    row[j] = x
                    rec(j + 1, row_sum + x)

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
