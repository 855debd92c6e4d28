"""Integral equivalences: corner-sum map onto the order polytope, its
inverse, and the antidiagonal translation onto full alternating sign
matrices.

The corner-sum map sends a polytope point to the restriction of its
northwest corner sums to the skew cells.  On the polytope, corner sums are
pinned to 0 on the lam region and to 1 everywhere east of the shape, which
is what makes the map invertible.  The certificate checks the equivalence
by the round trip through these two maps on every vertex, and by exact
bijections on vertices and on the integer points of small dilates; it uses
no randomness.
"""

from __future__ import annotations

from typing import Sequence

from .matrices import Matrix, Scalar, _corner_rows, _inverse_corner_rows
from .polytope import PasmPolytope, _dense, _within
from .shapes import Cell
from .skewposet import (
    SkewPoset,
    _ideals,
    build_poset,
    enumerate_order_preserving_maps,
    in_order_polytope,
)

PosetPoint = dict[Cell, Scalar]


def to_order_point(X: Matrix, poly: PasmPolytope) -> PosetPoint:
    """Corner sums of X restricted to the skew cells; lands in the order
    polytope of the cell poset."""
    if not poly.satisfies_inequalities(X):
        raise ValueError("matrix is not a point of the polytope")
    return _corner_point(X.rows, poly.shape.cells())


def _corner_point(rows: Sequence[Sequence[Scalar]], cells: Sequence[Cell]) -> PosetPoint:
    """The corner sums of the grid on the given cells."""
    C = _corner_rows(rows)
    return {(i, j): C[i - 1][j - 1] for (i, j) in cells}


def from_order_point(g: PosetPoint, poly: PasmPolytope) -> Matrix:
    """Inverse of :func:`to_order_point` on the order polytope.

    The corner-sum matrix is completed with 0 on cells (i, j) with
    j <= lam_i and 1 on cells with j > nu_i, the values forced on every
    polytope point, then finite-differenced back to a matrix.
    """
    return _from_order_point(g, poly, build_poset(poly.shape))


def _from_order_point(g: PosetPoint, poly: PasmPolytope, P: SkewPoset) -> Matrix:
    """:func:`from_order_point`, given the cell poset P of the shape.  A point
    with int values, such as a vertex image, stays in ints throughout."""
    if not in_order_polytope(P, g):
        raise ValueError("point is not in the order polytope")
    lam, nu, n = poly.shape.lam, poly.shape.nu, poly.n
    # The cells of row i are lam_i < j <= nu_i, consecutive in row-major order.
    vals = list(map(g.__getitem__, P.elements))
    grid, k = [], 0
    for i in range(1, poly.m + 1):
        a, b = lam.part(i), nu.part(i)
        grid.append([0] * a + vals[k:k + b - a] + [1] * (n - b))
        k += b - a
    rows = _inverse_corner_rows(grid)
    return Matrix._of_ints(rows) if set(map(type, g.values())) <= {int} else Matrix(rows)


def complete_to_asm(M: Matrix) -> Matrix:
    """Add 1 at position (i, n-i+2) of every row i >= 2 of a square matrix.

    Sends vertices of the staircase polytope in an n x n box to alternating
    sign matrices; the same translation works for every point of that
    polytope.
    """
    if M.m != M.n:
        raise ValueError("translation is defined for square matrices only")
    n = M.n
    rows = [list(r) for r in M.rows]
    for i in range(2, n + 1):
        j = n - i + 2
        rows[i - 1][j - 1] += 1
    return Matrix(rows)


def certify_integral_equivalence(poly: PasmPolytope, t_max: int) -> dict:
    """Computational certificate that the polytope and the order polytope of
    its cell poset are integrally equivalent.

    Checks, all exact:

    * every vertex V survives the round trip
      ``from_order_point(to_order_point(V)) == V``.  Both maps are affine
      and the vertices span the affine hull, so the corner-sum map is
      injective on the hull with an integral affine inverse.  A vertex
      outside the inequality description fails here too;
    * the corner-sum map bijects vertices onto the filter indicators of the
      cell poset: the zeros of the images are exactly its order ideals;
    * for each t <= t_max, it bijects the integer points of the t-th dilate
      onto the order-preserving maps into {0, ..., t}.

    t_max must be at least 1, so that some dilate is checked.  The dilate
    guardrail is applied to t_max before any other work; it refuses only
    t_max >= 2, so t_max = 1 runs on every shape.
    """
    if t_max < 1:
        raise ValueError(f"t_max must be >= 1, got {t_max}")
    poly._check_dilate(t_max)
    P = build_poset(poly.shape)
    cells = poly.shape.cells()
    report: dict = {
        "spec": poly.shape.to_json(),
        "affine_unimodular": True,
        "vertex_bijection": True,
        "dilate_counts": [],
        "counterexample": None,
    }

    def fail(kind: str, detail) -> dict:
        report[kind] = False
        report["counterexample"] = detail
        return report

    # Round trip of every vertex through the library's own inverse map, on
    # the int rows of the vertex: the membership test of to_order_point on
    # the list-indexed bound table, then its corner sums.
    bounds = poly._bound_lists()
    images = []
    for entries in poly._vertex_rows():
        rows = _dense(entries, poly.m, poly.n)
        back = None
        if _within(bounds, rows):
            g = _corner_point(rows, cells)
            try:
                back = _from_order_point(g, poly, P)
            except ValueError:
                pass
        if back is None or back.rows != rows:
            return fail("affine_unimodular", {"vertex": Matrix._of_ints(rows).to_json_dict()})
        images.append(tuple(g.values()))

    # Vertices correspond to filter indicators, bijectively.  After the round
    # trip every image is an int point of the order polytope, so a 0/1 point;
    # its zeros are the complement of a filter, an order ideal of P, compared
    # as a bitmask over the cells.
    zeros = {sum(1 << k for k, v in enumerate(image) if not v) for image in images}
    if len(set(images)) != len(images) or zeros != set(_ideals(P)):
        return fail("vertex_bijection", {"images": sorted(set(images))})

    # Lattice points of dilates correspond to order-preserving maps into
    # {0, ..., t}, bijectively.  The scan's points are streamed as int rows
    # and only their corner sums on the skew cells are kept.
    index = [(i - 1, j - 1) for (i, j) in cells]
    for t in range(1, t_max + 1):
        mapped = set()
        lhs = 0
        for rows in poly._scan_rows(t):
            lhs += 1
            C = _corner_rows(rows)
            vals = tuple(C[i][j] for i, j in index)
            if any(not isinstance(v, int) or v < 0 or v > t for v in vals):
                return fail("vertex_bijection", {"dilate": t, "point": Matrix(rows).to_json_dict()})
            mapped.add(vals)
        maps = {
            tuple(v - 1 for v in vals)
            for vals in enumerate_order_preserving_maps(P, t + 1)
        }
        rhs = len(maps)
        report["dilate_counts"].append([t, lhs, rhs])
        if len(mapped) != lhs or mapped != maps:
            return fail("vertex_bijection", {"dilate": t})

    return report


def certificate_passes(report: dict) -> bool:
    """True iff every check passed and at least one dilate was compared."""
    counts = report["dilate_counts"]
    return (
        bool(report["affine_unimodular"])
        and bool(report["vertex_bijection"])
        and bool(counts)
        and all(lhs == rhs for _, lhs, rhs in counts)
    )
