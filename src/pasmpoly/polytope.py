"""The polytope of partial alternating sign matrices attached to a skew shape.

The polytope is the convex hull of the profile matrices of all partitions
between lam and nu.  It is a face of the partial ASM polytope: every row
partial sum H(i, j) = X[i][1] + ... + X[i][j] and every column partial sum
V(i, j) = X[1][j] + ... + X[i][j] lies in [0, 1], and the face pins some of
them to 0 or to 1.  With lam_0 = nu_0 = n and [.] equal to 1 when the
condition holds and 0 otherwise, its inequality description is

* H(i, j) in [ [nu_i < j <= lam_{i-1}], [lam_i < j <= nu_{i-1}] ];
* V(i, j) in [ [lam_i = nu_i and j = nu_i + 1], [lam_i < j <= nu_i + 1] ].

These bounds are the face labeling.  PasmPolytope states them as four flat
int lists (lo_H, hi_H, lo_V, hi_V) in the (i - 1) * n + (j - 1) order of
matrices._partial_sums, which membership, the scan, the certificate and
facelattice.face_labeling read.  Membership reads them one grid row at a
time, given the column sums through the rows above (_row_within), which is
also the step of the certificate's vertex round trip.  They fix the line
sums (H(1, n) = V(m, 1) = 1, the other full sums 0) and the zeros in the
lam region and east of the border strip of nu.  The test suite pins them
to the paper's form: those fixed zeros, partial sums in [0, 1] and the
line sums.

The vertices come from shapes._between, the walk of [lam, nu] behind
enumerate_between: a step raises one part mu_k and resets the later parts
to lam, so only the profile rows from k on change.  vertices() builds each
distinct row once, keyed by its two parts (_profile_row); the certificate
checks each pair once per row, as an edge of its row-pair graph.  The
dimension is the sparse rank of the first vertex and the differences of
consecutive vertices, taken on the changed rows alone.  A step's
difference depends on (k, mu_k) alone and starts at (k, mu_k), so one is
built per key, |nu/lam| distinct ones, and the walk is the remaining cost.

The scan, _scan, walks the t-th dilate of the bound table it is handed,
so a caller that checks the walk reads the same table.  Its integer points
are scanned one cell at a time in row-major order (the transfer-matrix
method).  The corner-sum row C(i, .), with C(0, .) = C(., 0) = 0, is
complete after row i, and every bound is on a difference of two corner
sums: H(i, j) = C(i, j) - C(i - 1, j) against the row above, V(i, j) =
C(i, j) - C(i, j - 1) against the west neighbour.  So the key after cell
(i, j), packed into one int, is C(i, 1..j) followed by C(i - 1, j + 1..n),
and each entry is drawn from its H interval over the old entry it
replaces and its V step from the new entry before it.  The walk keeps, for
each key, one payload for all the point prefixes that reach it, their
paths of corner-sum rows or their number, and keys that meet add up their
payloads.  At the end of each row a hook extends each key's payload once,
so no frame is resumed per point: a point's rows are the finite
differences of its corner-sum rows.  The points come out grouped by key;
dilate_integer_points sorts them into row-major lexicographic order at the
end.  At t = 1 the points are the vertices, so the scan doubles as a check
of the inequality description; only dilates with t >= 2 pass a guardrail.
"""

from __future__ import annotations

from itertools import accumulate, chain
from operator import add, le
from typing import NamedTuple, Sequence

from ._linalg import convex_combination_exists, rank
from .matrices import Matrix, Scalar, _inverse_corner_rows
from .shapes import SkewShape, _between

DILATE_SIZE_LIMIT = 8
DILATE_T_LIMIT = 4


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
        self._table = None

    @property
    def m(self) -> int:
        return self.shape.m

    @property
    def n(self) -> int:
        return self.shape.n

    def _bounds(self) -> tuple[list[int], list[int], list[int], list[int]]:
        """The inequality description, in the closed form of the module
        docstring: the bounds (lo_H, hi_H, lo_V, hi_V) on H(i, j) and
        V(i, j), each list indexed by (i - 1) * n + (j - 1).  The table is
        built on the first call and shared by every later one, so no caller
        may change its lists."""
        if self._table is None:
            m, n = self.m, self.n
            lam = [n] + [self.shape.lam.part(i) for i in range(1, m + 1)]
            nu = [n] + [self.shape.nu.part(i) for i in range(1, m + 1)]
            cells = [(i, j) for i in range(1, m + 1) for j in range(1, n + 1)]
            self._table = ([int(nu[i] < j <= lam[i - 1]) for i, j in cells],
                           [int(lam[i] < j <= nu[i - 1]) for i, j in cells],
                           [int(lam[i] == nu[i] and j == nu[i] + 1) for i, j in cells],
                           [int(lam[i] < j <= nu[i] + 1) for i, j in cells])
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

    def satisfies_inequalities(self, X: Matrix) -> bool:
        """Exact membership test against the inequality description."""
        if X.m != self.m or X.n != self.n:
            raise ValueError(f"expected a {self.m}x{self.n} matrix, got {X.m}x{X.n}")
        return _within(self._bounds(), X.rows)

    def vertices(self) -> list[Matrix]:
        """Profile matrices of all partitions mu between lam and nu, in the
        lexicographic order of shapes.enumerate_between.

        With mu_0 = n, row i (0-based) holds 1 at mu_{i+1} and -1 at mu_i
        when mu_i > mu_{i+1}, and is empty otherwise; row 0's -1 falls
        outside the row.  Each dense row is built once for its pair
        (mu_i, mu_{i+1}), and a step of the walk that raises part k looks
        up only the rows from k on.
        """
        m, n, cache = self.m, self.n, {}
        verts, rows = [], []
        for k, mu in _between(self.shape.lam, self.shape.nu, m):
            del rows[k:]
            for pair in zip(chain((mu[k - 1] if k else n,), mu[k:]), mu[k:]):
                if pair not in cache:
                    cache[pair] = _profile_row(*pair, n)
                rows.append(cache[pair])
            verts.append(Matrix._of_ints(rows))
        return verts

    def dimension(self) -> int:
        """Affine dimension of the vertex set, by exact rank computation.

        The entries of every vertex sum to 1, so the affine hull misses the
        origin and the linear span of the vertices is one dimension larger:
        the dimension is the rank of the vertices, minus 1.

        The rank gets the first vertex and the differences of consecutive
        vertices in walk order, as sparse rows {i * n + j: entry}; they
        span what the vertices span.  A step raises part k from mu_k and
        resets the later parts to lam.  Each later part was at its largest,
        the smaller of its part of nu and the part above, so mu_k fixes them
        all, and row k changes by -1 at mu_k and +1 at mu_k + 1 whatever
        the part above it.  So the difference, taken on the rows from k on,
        depends on (k, mu_k) alone and starts at (k, mu_k): one is built per
        key, when the key first comes up, |nu/lam| distinct rows.  What
        remains is the walk itself, one step per vertex.
        """
        m, n = self.m, self.n

        def tail(mu: tuple[int, ...], k: int) -> dict[int, int]:
            # The nonzeros of rows k.. of the profile of mu.
            entries = {} if k else {mu[0]: 1}
            for i in range(k or 1, m):
                if mu[i - 1] > mu[i]:
                    entries[i * n + mu[i]], entries[i * n + mu[i - 1]] = 1, -1
            return entries

        walk = _between(self.shape.lam, self.shape.nu, m)
        _, old = next(walk)
        first, steps = tail(old, 0), {}
        for k, mu in walk:
            if (k, old[k]) not in steps:
                # A position where two rows differ is in the symmetric
                # difference of their items, once or, where the entry flips
                # sign, twice.
                a, b = tail(old, k), tail(mu, k)
                steps[k, old[k]] = {j: b.get(j, 0) - a.get(j, 0) for j, _ in a.items() ^ b.items()}
            old = mu
        return rank([first, *steps.values()]) - 1

    def _check_dilate(self, t: int) -> None:
        """The one guardrail of the integer-point scan; it refuses only t >= 2.

        At t = 1 every H(i, j) and V(i, j) lies in [0, 1] and C(i, n) = 1
        for i >= 1, so the corner-sum row after a row is a 0/1 step that
        ends at 1.  A key of the cell walk after column j is then a prefix
        rising by steps of 0 or 1 and at most 1 above the row above: before
        a suffix that starts at 0, a 0/1 step before a 0/1 step, at most
        (j + 1)(n - j) keys; before a suffix of ones, values in {0, 1, 2},
        at most (j + 1)(j + 2)/2 keys.  So every cell holds at most
        (n + 1)(n + 2)/2 keys.  Its points are the vertices, which
        vertices() and dim already walk with no guard.  At t = 0 the scan
        yields one point.  A t that is not an int, a bool among them,
        raises TypeError.
        """
        if isinstance(t, bool) or not isinstance(t, int):
            raise TypeError(f"dilation factor must be an int, got {type(t).__name__}")
        if t < 0:
            raise ValueError("dilation factor must be nonnegative")
        if t > DILATE_T_LIMIT or (t >= 2 and self.shape.size > DILATE_SIZE_LIMIT):
            raise ResourceLimit(
                f"dilate scan guardrail exceeded: |nu/lam| = {self.shape.size}, t = {t}; "
                f"limits t <= {DILATE_T_LIMIT}, and |nu/lam| <= {DILATE_SIZE_LIMIT} when t >= 2"
            )

    def dilate_lattice_points(self, t: int) -> DilateCount:
        """Number of integer matrices in the t-th dilate, by the cell walk
        of the scan with one count per key: no point is listed."""
        self._check_dilate(t)
        return DilateCount(t, sum(_scan(self._bounds(), self.n, t, 1, lambda count, i, after: count)))

    def dilate_integer_points(self, t: int) -> list[Matrix]:
        """The integer matrices of the t-th dilate themselves, in
        lexicographic (row-major) order.  The cell walk carries each point's
        path of corner-sum rows; its rows are their finite differences, and
        the points are sorted once at the end."""
        self._check_dilate(t)
        paths = _scan(self._bounds(), self.n, t, [()], lambda ps, i, after: [p + (after,) for p in ps])
        return [Matrix._of_ints(rows)
                for rows in sorted(map(_inverse_corner_rows, chain.from_iterable(paths)))]

    def __repr__(self) -> str:
        return f"PasmPolytope({self.shape!r})"


def _scan(table: tuple[list[int], ...], n: int, t: int, seed, close, probe=None) -> list:
    """The payloads of the integer points of the t-dilate of a bound table
    of n columns, as PasmPolytope._bounds gives it, after the cell walk of
    the module docstring from ``seed`` at the zero key: one per corner-sum
    row after the last row, in the order reached.  Bits j * w to
    j * w + w - 1 of a key hold C(., j) plus a bias, C(., 0) = 0 included;
    each corner sum is a column prefix sum of H, and those of the H bounds
    give the bias and w.  At the end of row i (0-based), close(payload, i,
    after) extends the payload by the row, with ``after`` = C(i, .).
    probe(k, step), if given, runs before cell k (row-major, 0-based);
    step(*bounds) steps the keys through it under dilated bounds.
    """
    lo_h, hi_h, lo_v, hi_v = ([t * x for x in xs] for xs in table)
    bias = -min(0, *(min(accumulate(lo_h[j::n])) for j in range(n)))
    w = (max(0, *(max(accumulate(hi_h[j::n])) for j in range(n))) + bias).bit_length() or 1
    mask, shifts = (1 << w) - 1, range(w, (n + 1) * w, w)
    keys = {sum([bias << s for s in range(0, (n + 1) * w, w)]): seed}
    cells = list(zip(lo_h, hi_h, lo_v, hi_v))
    for i in range(len(cells) // n):
        for s, k in zip(shifts, range(i * n, (i + 1) * n)):
            if probe:
                probe(k, lambda *cut: _cell(keys, s, w, mask, *cut))
            keys = _cell(keys, s, w, mask, *cells[k])
        keys = {key: close(payload, i, tuple([(key >> s & mask) - bias for s in shifts]))
                for key, payload in keys.items()}
    return list(keys.values())


def _cell(keys: dict, s: int, w: int, mask: int, lo_h: int, hi_h: int, lo_v: int, hi_v: int) -> dict:
    """One cell of the scan's walk, on the w-bit field at bit s of each
    packed key: its C(i - 1, j) is replaced by every C(i, j) within
    [lo_h, hi_h] over it (the H bound) and within [lo_v, hi_v] over the
    field below, C(i, j - 1) (the V bound), one range of keys.  Keys that
    meet add up their payloads with ``+``; a key with no value dies."""
    reached: dict = {}
    step, field = 1 << s, mask << s
    lo_h, hi_h, lo_v, hi_v = lo_h << s, (hi_h << s) + 1, lo_v << s, (hi_v << s) + 1
    for key, payload in keys.items():
        # The key with its field C(i - 1, j) replaced by C(i, j - 1).
        west = key + (key << w & field) - (key & field)
        lo, hi = key + lo_h, key + hi_h
        if lo < west + lo_v:
            lo = west + lo_v
        if hi > west + hi_v:
            hi = west + hi_v
        for after in range(lo, hi, step):
            reached[after] = reached[after] + payload if after in reached else payload
    return reached


def _profile_row(a: int, b: int, n: int) -> tuple[int, ...]:
    """The profile row fixed by the parts (a, b) = (mu_i, mu_{i+1}), with
    mu_0 = n: 1 at column b and -1 at column a, 0-based, when a > b; a = n
    puts the -1 outside the row."""
    return tuple([(j == b) - (j == a) for j in range(n)])


def _row_bounds(bounds: tuple[list[int], ...], n: int) -> list[tuple[list[int], ...]]:
    """The bound lists of PasmPolytope._bounds cut into one
    (lo_H, hi_H, lo_V, hi_V) per grid row of n columns."""
    return [tuple(xs[k:k + n] for xs in bounds) for k in range(0, len(bounds[0]), n)]


def _row_within(bounds: tuple[list[int], ...], above: Sequence[Scalar],
                row: Sequence[Scalar]) -> tuple[Scalar, ...] | None:
    """One grid row of the membership test: the column partial sums through
    the row, given those through the rows above it, if the row's row and
    column partial sums lie within its bounds, one row of _row_bounds;
    None if one does not."""
    lo_h, hi_h, lo_v, hi_v = bounds
    h = list(accumulate(row))
    v = tuple(map(add, above, row))
    if all(map(le, lo_h, h)) and all(map(le, h, hi_h)) and all(map(le, lo_v, v)) and all(map(le, v, hi_v)):
        return v
    return None


def _within(bounds: tuple[list[int], ...], rows: Sequence[Sequence[Scalar]]) -> bool:
    """True iff every row and column partial sum of the grid lies within the
    bounds of PasmPolytope._bounds, checked one row at a time."""
    above: tuple[Scalar, ...] | None = (0,) * len(rows[0])
    for row_bounds, row in zip(_row_bounds(bounds, len(rows[0])), rows):
        above = _row_within(row_bounds, above, row)
        if above is None:
            return False
    return True


def is_extreme(X: Matrix, others: list[Matrix]) -> bool:
    """True iff X is not a convex combination of the given matrices.

    If <X, X> > <X, V> for every V in others, the functional X strictly
    separates X from their hull, an exact proof that X is extreme.  Both
    products run over the nonzero entries of X only.  Every other case, and
    so every False, is decided by the phase-1 simplex.
    """
    if any(o.m != X.m or o.n != X.n for o in others):
        raise ValueError("mixed dimensions")
    support = [(i, j, a) for i, row in enumerate(X.rows) for j, a in enumerate(row) if a]
    norm = sum(a * a for _, _, a in support)
    if all(sum(a * o.rows[i][j] for i, j, a in support) < norm for o in others):
        return True
    return not convex_combination_exists(X.flatten(), [o.flatten() for o in others])
