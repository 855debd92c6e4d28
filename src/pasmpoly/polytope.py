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
(lo, hi) per grid edge, which facelattice.face_labeling reads; the
membership test and the integer-point scan read it as flat lists in the
index order of the vertex rows.  They fix the line sums
(H(1, n) = V(m, 1) = 1, the other full sums 0) and the zeros in the lam
region and east of the border strip of nu.  The test suite pins them to
the paper's form: those fixed zeros, partial sums in [0, 1] and the line
sums.

Inside the package the vertices are held as sparse int rows, one
{i * n + j: +-1} dict per profile with at most 2m - 1 nonzeros, walked
straight from the parts of each partition.  The dimension comes from
their sparse rank, and the equivalence certificate runs its round trip on
them; vertices() wraps them in Matrix only for the public API.

The t-th dilate scales the bounds by t.  Its integer points are scanned row
by row (the transfer-matrix method), one level per row.  The state after
row i is the corner-sum row C(i, .), with C(0, .) = C(., 0) = 0, so every
bound is on a difference of two corner sums: H(i, j) = C(i, j) - C(i - 1, j)
against the previous state, V(i, j) = C(i, j) - C(i, j - 1) against the west
neighbour.  The walk keeps, for each state, one payload for all the point
prefixes that reach it: their images, their rows with their images, or
their number.  The next states out of each state are drawn once per level,
and each (state, next state) pair extends its state's whole payload in one
list comprehension, so no frame is resumed per point.  The points come out
grouped by state; the rows walk sorts them into row-major lexicographic
order at the end.  A backward pass over the columns first finds each
entry's live interval, its H interval cut by the V steps to the columns
that remain; each entry is then drawn from it, cut by the V step from its
west neighbour, so no partial state dies at a later column.  A point's
image, its corner sums plus 1 on the skew cells (the order-preserving map
into {1, ..., t + 1} that it matches), is its states' slices on the cells
lifted by 1, and its rows are the second differences of consecutive
states, both built once per transition.  At t = 1 the points are the
vertices, so the scan doubles as the census of the inequality description;
only dilates with t >= 2 pass a guardrail.
"""

from __future__ import annotations

from itertools import accumulate, chain
from operator import add, le, sub
from typing import Iterator, NamedTuple, Sequence

from ._linalg import convex_combination_exists, rank
from .matrices import Matrix, Scalar
from .shapes import SkewShape

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


class _RowLayout(NamedTuple):
    """Where the skew cells lam_i < j <= nu_i of one row i sit."""

    zeros: tuple[int, ...]  # the corner sums forced to 0, on j <= lam_i
    cols: slice             # the cells, as a slice of the row and of its corner sums
    vals: slice             # the cells, as a slice of the row-major value tuple
    ones: tuple[int, ...]   # the corner sums forced to 1, on j > nu_i


class PasmPolytope:
    """H- and V-descriptions of the polytope for one skew shape."""

    __slots__ = ("shape", "_table")

    def __init__(self, shape: SkewShape):
        self.shape = shape
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

    def _row_layout(self) -> list[_RowLayout]:
        """The layout of every row's skew cells, read from the parts of the
        shape; the cells of row i are consecutive in row-major order."""
        layout, k = [], 0
        for i in range(1, self.m + 1):
            a, b = self.shape.lam.part(i), self.shape.nu.part(i)
            layout.append(_RowLayout((0,) * a, slice(a, b), slice(k, k + b - a), (1,) * (self.n - b)))
            k += b - a
        return layout

    def _bound_lists(self, t: int = 1) -> tuple[list[int], ...]:
        """The bound table times t, as the lists (lo_H, hi_H, lo_V, hi_V),
        each indexed by (i - 1) * n + (j - 1) like the sparse vertex rows.
        Built from _bounds() on each call."""
        bounds = self._bounds()
        edges = [(i, j) for i in range(1, self.m + 1) for j in range(1, self.n + 1)]
        return tuple([t * bounds[kind, i, j][side] for i, j in edges]
                     for kind in "HV" for side in (0, 1))

    def satisfies_inequalities(self, X: Matrix) -> bool:
        """Exact membership test against the inequality description."""
        if X.m != self.m or X.n != self.n:
            raise ValueError(f"expected a {self.m}x{self.n} matrix, got {X.m}x{X.n}")
        return _within(self._bound_lists(), X.rows)

    def _vertex_rows(self) -> Iterator[dict[int, int]]:
        """The profile of every partition mu between lam and nu, as a sparse
        row {i * n + j: entry} over the 0-based cells (i, j), in the
        lexicographic order of shapes.enumerate_between.

        mu is walked as parts mu_1..mu_m (mu_m = 0): row 0 holds 1 at
        mu_1, and row k >= 1 holds 1 at mu_{k+1} and -1 at mu_k when
        mu_k > mu_{k+1}, so the row is complete once mu_m is placed.
        """
        m, n = self.m, self.n
        lam = [self.shape.lam.part(k) for k in range(1, m + 1)]
        nu = [self.shape.nu.part(k) for k in range(1, m + 1)]

        def walk(k: int, prev: int, entries: tuple) -> Iterator[dict[int, int]]:
            # prev is mu_k; entries holds the nonzeros of rows < k.
            if k == m:
                yield dict(entries)
                return
            base = k * n
            for part in range(lam[k], min(nu[k], prev) + 1):
                step = ((base + part, 1), (base + prev, -1)) if part < prev else ()
                yield from walk(k + 1, part, entries + step)

        for first in range(lam[0], nu[0] + 1):
            yield from walk(1, first, ((first, 1),))

    def vertices(self) -> list[Matrix]:
        """Profile matrices of all partitions between lam and nu."""
        m, n, cache = self.m, self.n, {}
        return [Matrix._of_ints(_dense(v, m, n, cache)) for v in self._vertex_rows()]

    def _scan(self, t: int, seed, extend) -> list:
        """The level walk of the t-dilate: the payloads of its integer points,
        one per state after the last row, in the order the states are reached.

        The state after row i is the corner-sum row C(i, .), and the walk
        keeps a dict from each state to one payload for all the point
        prefixes that reach it, starting from ``seed`` at the zero state.
        Each state's next states are drawn once, a column at a time; for each
        (state, next state) pair ``extend(payload, i, state, after)`` gives
        the payload of those prefixes extended by row i + 1 (i 0-based), and
        the payloads that reach the same next state are added up with
        ``+=``.  The row is the second difference of the two states, and the
        row's slice of the image is after[cols] plus 1 for the cells'
        columns ``cols``.

        Each entry C(i + 1, j) is drawn from the range that keeps H(i + 1, j)
        = C(i + 1, j) - C(i, j) live, within t times its bounds and still
        able to reach the columns that remain (a backward pass per state),
        and V(i + 1, j) = C(i + 1, j) - C(i + 1, j - 1) within t times its
        bounds.  The bounds on the full line sums close every row and column.
        """
        m, n = self.m, self.n
        # scaled[i]: (lo_H, hi_H, lo_V, hi_V) of row i + 1, times t, per column.
        bounds = self._bound_lists(t)
        scaled = [list(zip(*(b[i * n:(i + 1) * n] for b in bounds))) for i in range(m)]

        def next_states(i: int, state: tuple[int, ...]) -> list[tuple[int, ...]]:
            """The next states C(i + 1, .) after the state C(i, .) (i 0-based),
            in lexicographic order, which is that of their rows."""
            # live[j]: the values of C(i + 1, j + 1) from which the state can
            # still be completed: its H interval over state[j], cut by the
            # V step into the next column, walked back from the last column.
            live = [None] * n
            lo, hi = state[-1] + scaled[i][-1][0], state[-1] + scaled[i][-1][1]
            for j in range(n - 1, -1, -1):
                lo_h, hi_h, lo_v, hi_v = scaled[i][j]
                lo, hi = max(lo, state[j] + lo_h), min(hi, state[j] + hi_h)
                if lo > hi:
                    return []
                live[j] = (lo, hi, lo_v, hi_v)
                lo, hi = lo - hi_v, hi - lo_v
            partial = [(0,)]  # C(i + 1, 0), ..., C(i + 1, j)
            for lo_s, hi_s, lo_v, hi_v in live:
                partial = [q + (c,) for q in partial
                           for c in range(max(lo_s, q[-1] + lo_v), min(hi_s, q[-1] + hi_v) + 1)]
            return [q[1:] for q in partial]

        level = {(0,) * n: seed}
        for i in range(m):
            reached: dict = {}
            for state, payload in level.items():
                for after in next_states(i, state):
                    if after in reached:
                        reached[after] += extend(payload, i, state, after)
                    else:
                        reached[after] = extend(payload, i, state, after)
            level = reached
        return list(level.values())

    def _scan_images(self, t: int) -> list[tuple[int, ...]]:
        """The image of every integer point of the t-dilate, grouped by the
        states of the level walk: the order-preserving map into
        {1, ..., t + 1} that the point matches, its corner sums plus 1 on the
        skew cells in row-major order."""
        cols = [r.cols for r in self._row_layout()]

        def extend(images, i, state, after):
            part = tuple([c + 1 for c in after[cols[i]]])
            return [image + part for image in images]

        return list(chain.from_iterable(self._scan(t, [()], extend)))

    def _scan_rows(self, t: int) -> list[tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]]:
        """All integer points of the t-dilate in lexicographic (row-major)
        order, each as (rows, image): a tuple of int row tuples, and its
        image as in _scan_images.  The level walk carries the rows with the
        images; the points are sorted once at the end."""
        cols = [r.cols for r in self._row_layout()]

        def extend(points, i, state, after):
            h = list(map(sub, after, state))  # H(i + 1, .)
            row = tuple(map(sub, h, chain((0,), h)))
            part = tuple([c + 1 for c in after[cols[i]]])
            return [(rows + (row,), image + part) for rows, image in points]

        return sorted(chain.from_iterable(self._scan(t, [((), ())], extend)))

    def dimension(self) -> int:
        """Affine dimension of the vertex set, by exact rank computation.

        The entries of every vertex sum to 1, so the affine hull misses the
        origin and the linear span of the vertices is one dimension larger:
        the dimension is the rank of the sparse vertex rows, minus 1.
        """
        return rank(self._vertex_rows()) - 1

    def _check_dilate(self, t: int) -> None:
        """The one guardrail of the integer-point scan; it refuses only t >= 2.

        At t = 1 every V(i, j) lies in [0, 1] and C(i, n) = 1 for i >= 1, so
        a corner-sum row after a row is a 0/1 step that ends at 1: the scan
        has at most n states per level, and its points are the vertices,
        which vertices(), dim and the certificate's round trip already list
        with no guard.  At t = 0 the scan yields one point.
        """
        if t < 0:
            raise ValueError("dilation factor must be nonnegative")
        if t > DILATE_T_LIMIT or (t >= 2 and self.shape.size > DILATE_SIZE_LIMIT):
            raise ResourceLimit(
                f"dilate scan guardrail exceeded: |nu/lam| = {self.shape.size}, t = {t}; "
                f"limits t <= {DILATE_T_LIMIT}, and |nu/lam| <= {DILATE_SIZE_LIMIT} when t >= 2"
            )

    def dilate_lattice_points(self, t: int) -> DilateCount:
        """Number of integer matrices in the t-th dilate, by the level walk
        of the scan with one count per state: no point is listed."""
        self._check_dilate(t)
        return DilateCount(t, sum(self._scan(t, 1, lambda count, i, state, after: count)))

    def dilate_integer_points(self, t: int) -> list[Matrix]:
        """The integer matrices of the t-th dilate themselves."""
        self._check_dilate(t)
        return [Matrix._of_ints(rows) for rows, _ in self._scan_rows(t)]

    def __repr__(self) -> str:
        return f"PasmPolytope({self.shape!r})"


def _dense(entries: dict[int, int], m: int, n: int,
           cache: dict[tuple[int, ...], tuple[int, ...]]) -> tuple[tuple[int, ...], ...]:
    """The m x n rows of a sparse row {i * n + j: entry}.

    Each row is keyed by its nonzeros, as the flat pairs (i * n + j, entry),
    and built once per key in ``cache``, which the caller shares across the
    vertices: a profile row has at most two nonzeros, so few rows are
    distinct, and equal rows are one tuple.
    """
    keys: list[tuple[int, ...]] = [()] * m
    for item in entries.items():
        keys[item[0] // n] += item
    return tuple([cache[key] if key in cache else _dense_row(key, n, cache) for key in keys])


def _dense_row(key: tuple[int, ...], n: int,
               cache: dict[tuple[int, ...], tuple[int, ...]]) -> tuple[int, ...]:
    """The row of _dense keyed by ``key``, stored in ``cache``."""
    row = [0] * n
    for p in range(0, len(key), 2):
        row[key[p] % n] = key[p + 1]
    cache[key] = tuple(row)
    return cache[key]


def _within(bound_lists: tuple[list[int], ...], rows: Sequence[Sequence[Scalar]]) -> bool:
    """True iff every row and column partial sum of the grid lies within the
    bounds of PasmPolytope._bound_lists."""
    lo_h, hi_h, lo_v, hi_v = bound_lists
    h = list(chain.from_iterable(map(accumulate, rows)))
    v = list(chain.from_iterable(accumulate(rows, lambda a, b: list(map(add, a, b)))))
    return (all(map(le, lo_h, h)) and all(map(le, h, hi_h))
            and all(map(le, lo_v, v)) and all(map(le, v, hi_v)))


def is_extreme(X: Matrix, others: list[Matrix]) -> bool:
    """True iff X is not a convex combination of the given matrices.

    If <X, X> > <X, V> for every V in others, the functional X strictly
    separates X from their hull, an exact proof that X is extreme.  Both
    products run over the nonzero entries of X only.  Every other case, and
    so every False, is decided by the phase-1 simplex.
    """
    if any(o.m != X.m or o.n != X.n for o in others):
        raise ValueError("mixed dimensions")
    if not others:
        return True
    support = [(i, j, a) for i, row in enumerate(X.rows) for j, a in enumerate(row) if a]
    norm = sum(a * a for _, _, a in support)
    if all(sum(a * o.rows[i][j] for i, j, a in support) < norm for o in others):
        return True
    return not convex_combination_exists(X.flatten(), [o.flatten() for o in others])
