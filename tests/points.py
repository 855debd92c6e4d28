"""Test points: rational points of a polytope, built in ``Fraction``
arithmetic from its vertex matrices, the 0/1 points of an order polytope,
the partial sums of a matrix, one line at a time, as an oracle for the
package's flat partial-sum kernel, a polytope's bound lists with the
bounds on one grid edge pinned, a polytope that reads a given bound
table, and what the certificate's census of a dilate reports for a list
of its points or by the census of origin lists it replaced."""

from fractions import Fraction

from pasmpoly import Matrix, PasmPolytope, build_poset
from pasmpoly.polytope import _scan
from pasmpoly.skewposet import enumerate_order_preserving_maps


def filter_indicator(P, filt) -> dict:
    """The 0/1 point of the order polytope of P that is 1 exactly on filt."""
    return {c: (1 if c in filt else 0) for c in P.elements}


def convex_combination(weights, mats) -> Matrix:
    """Weighted sum of matrices; weights should be nonnegative and sum to 1."""
    if len(weights) != len(mats) or not mats:
        raise ValueError("need one weight per matrix")
    if sum(weights) != 1:
        raise ValueError("weights must sum to 1")
    m, n = mats[0].m, mats[0].n
    if any(M.m != m or M.n != n for M in mats):
        raise ValueError("mixed dimensions")
    return Matrix(
        [sum(Fraction(w) * M.rows[i][j] for w, M in zip(weights, mats)) for j in range(n)]
        for i in range(m)
    )


def row_partial_sums(M: Matrix, i: int) -> list:
    """Partial sums of row i through columns 1..n."""
    out, s = [], 0
    for x in M.rows[i - 1]:
        s += x
        out.append(s)
    return out


def column_partial_sums(M: Matrix, j: int) -> list:
    """Partial sums of column j through rows 1..m."""
    out, s = [], 0
    for i in range(M.m):
        s += M.rows[i][j - 1]
        out.append(s)
    return out


def narrowed_bounds(poly, edge, lo: int, hi: int) -> tuple[list[int], ...]:
    """The bound lists (lo_H, hi_H, lo_V, hi_V) of poly with the partial sum
    on the grid edge ("H" | "V", i, j) bounded by [lo, hi] instead."""
    kind, i, j = edge
    lists = [list(xs) for xs in poly._bounds()]
    side, k = "HV".index(kind) * 2, (i - 1) * poly.n + (j - 1)
    lists[side][k], lists[side + 1][k] = lo, hi
    return tuple(lists)


class TablePolytope(PasmPolytope):
    """The polytope of a shape with the given bound lists (lo_H, hi_H, lo_V,
    hi_V) in place of its own."""

    __slots__ = ("table",)

    def __init__(self, shape, table):
        super().__init__(shape)
        self.table = table

    def _bounds(self):
        return self.table


def listing_census(poly, t: int, points) -> tuple[int, bool, bool]:
    """(count, valid, distinct) for the points of the t-th dilate of poly,
    given by their rows: how many there are, whether each one's image, its
    corner sums on the skew cells plus 1, each summed over its northwest
    block, is an order-preserving map into {1, ..., t + 1}, and whether
    the images are distinct."""
    maps = set(enumerate_order_preserving_maps(build_poset(poly.shape), t + 1))
    images = [tuple(1 + sum(x for row in rows[:i] for x in row[:j]) for i, j in poly.shape.cells())
              for rows in points]
    return len(images), all(image in maps for image in images), len(set(images)) == len(images)


def origin_census(poly, P, t: int) -> tuple[int, bool, bool]:
    """(count, valid, distinct) for the integer points of the t-th dilate,
    by the certificate's census before it became a count walk, kept as the
    reference for the census of the package.

    The covers a < b of the cell poset P are filed under the row of b, as
    offsets into slices of corner-sum rows on the cells: the east covers,
    both ends in that row's slice, and the south covers, from the slice of
    the row above.  A key's payload lists each origin, the key at the end
    of the row above that its prefixes passed, as (that key's slice,
    count).  At the end of each row, ``close`` takes the key's own slice s
    and checks that it lies in [0, t], that it is weakly increasing along
    the east covers, and that no other key of the row has the same slice;
    for each origin it checks the south covers from the origin's slice into
    s and adds the origin's count."""
    layout = poly._row_layout()
    row = [i for i, r in enumerate(layout) for _ in range(r.vals.start, r.vals.stop)]
    east = [[] for _ in layout]
    south = [[] for _ in layout]
    for a, b in P.covers:
        i = row[b]
        (east if row[a] == i else south)[i].append((a - layout[row[a]].vals.start, b - layout[i].vals.start))
    cols = [r.cols for r in layout]
    seen = [set() for _ in cols]
    valid = distinct = True

    def close(origins, i, after):
        nonlocal valid, distinct
        s = after[cols[i]]
        if s in seen[i]:
            distinct = False
        seen[i].add(s)
        if valid and not (all([0 <= c <= t for c in s]) and all([s[p] <= s[q] for p, q in east[i]])
                          and all([o[p] <= s[q] for o, _ in origins for p, q in south[i]])):
            valid = False
        return [(s, sum([count for _, count in origins]))]

    ends = _scan(poly._bounds(), poly.n, t, [((), 1)], close)
    return sum(count for payload in ends for _, count in payload), valid, distinct
