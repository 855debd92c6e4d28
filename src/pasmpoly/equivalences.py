"""Integral equivalences: corner-sum map onto the order polytope, its
inverse, and the antidiagonal translation onto full alternating sign
matrices.

The corner-sum map sends a polytope point to the restriction of its
northwest corner sums to the skew cells.  On the polytope, corner sums are
pinned to 0 on the lam region and to 1 everywhere east of the shape, which
is what makes the map invertible.  The certificate checks the equivalence
by the round trip through these two maps on every vertex, and by exact
bijections of the vertices and of the integer points of small dilates onto
order-preserving maps, compared as value tuples over the skew cells; it
uses no randomness.
"""

from __future__ import annotations

from typing import Sequence

from .matrices import Matrix, Scalar, _corner_rows, _inverse_corner_rows
from .polytope import PasmPolytope, _dense, _within
from .shapes import Cell
from .skewposet import build_poset, enumerate_order_preserving_maps, in_order_polytope

PosetPoint = dict[Cell, Scalar]


def to_order_point(X: Matrix, poly: PasmPolytope) -> PosetPoint:
    """Corner sums of X restricted to the skew cells; lands in the order
    polytope of the cell poset."""
    if not poly.satisfies_inequalities(X):
        raise ValueError("matrix is not a point of the polytope")
    cells = poly.shape.cells()
    return dict(zip(cells, _corner_image(X.rows, cells)))


def _corner_image(rows: Sequence[Sequence[Scalar]], cells: Sequence[Cell]) -> tuple[Scalar, ...]:
    """The corner sums of the grid on the given cells, in their order."""
    C = _corner_rows(rows)
    return tuple(C[i - 1][j - 1] for (i, j) in cells)


def from_order_point(g: PosetPoint, poly: PasmPolytope) -> Matrix:
    """Inverse of :func:`to_order_point` on the order polytope.

    The corner-sum matrix is completed with 0 on cells (i, j) with
    j <= lam_i and 1 on cells with j > nu_i, the values forced on every
    polytope point, then finite-differenced back to a matrix.
    """
    P = build_poset(poly.shape)
    if not in_order_polytope(P, g):
        raise ValueError("point is not in the order polytope")
    return Matrix(_from_order_values(tuple(map(g.__getitem__, P.elements)), poly))


def _from_order_values(vals: tuple[Scalar, ...],
                       poly: PasmPolytope) -> tuple[tuple[Scalar, ...], ...]:
    """The rows of :func:`from_order_point`, given its values on the skew
    cells in row-major order; int values give int rows.  The values are not
    checked against the order polytope."""
    lam, nu, n = poly.shape.lam, poly.shape.nu, poly.n
    # The cells of row i are lam_i < j <= nu_i, consecutive in row-major order.
    grid, k = [], 0
    for i in range(1, poly.m + 1):
        a, b = lam.part(i), nu.part(i)
        grid.append((0,) * a + vals[k:k + b - a] + (1,) * (n - b))
        k += b - a
    return _inverse_corner_rows(grid)


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

    Every comparison is of value tuples over the skew cells in row-major
    order: corner sums of points against order-preserving maps of the cell
    poset, each set of maps enumerated once.  Checks, all exact:

    * every vertex V survives the round trip
      ``from_order_point(to_order_point(V)) == V``: V is within the
      inequality description, and its image goes back to V through the
      inverse kernel of :func:`from_order_point`.  Both maps are affine and
      the vertices span the affine hull, so the corner-sum map is injective
      on the hull with an integral affine inverse;
    * the vertex images are distinct and are exactly the order-preserving
      maps into {0, 1}, the filter indicators.  This puts every image in the
      order polytope, so an image outside it fails here, not the round trip;
    * for each t <= t_max, the integer points of the t-th dilate biject
      onto the order-preserving maps into {0, ..., t}: the first point whose
      image is not such a map is the counterexample, and the points are as
      many as their distinct images and the maps.

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

    def order_maps(t: int) -> set[tuple[int, ...]]:
        """The order-preserving maps of P into {0, ..., t}."""
        return {tuple(v - 1 for v in vals)
                for vals in enumerate_order_preserving_maps(P, t + 1)}

    # Round trip of every vertex on its int rows: the membership test of
    # to_order_point on the list-indexed bound table, then the inverse of
    # its corner-sum image.
    bounds = poly._bound_lists()
    images = []
    for entries in poly._vertex_rows():
        rows = _dense(entries, poly.m, poly.n)
        image = _corner_image(rows, cells)
        if not _within(bounds, rows) or _from_order_values(image, poly) != rows:
            return fail("affine_unimodular", {"vertex": Matrix._of_ints(rows).to_json_dict()})
        images.append(image)

    filters = order_maps(1)
    distinct = set(images)
    if len(distinct) != len(images) or distinct != filters:
        return fail("vertex_bijection", {"images": sorted(distinct)})

    # The scan's points are streamed as int rows and only their images kept.
    for t in range(1, t_max + 1):
        maps = filters if t == 1 else order_maps(t)
        mapped = set()
        lhs = 0
        for rows in poly._scan_rows(t):
            image = _corner_image(rows, cells)
            if image not in maps:
                return fail("vertex_bijection", {"dilate": t, "point": Matrix(rows).to_json_dict()})
            mapped.add(image)
            lhs += 1
        report["dilate_counts"].append([t, lhs, len(maps)])
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
