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
uses no randomness.  The dilate scan hands it the images of all the points
of a dilate at once, grouped by the scan's keys: each the order-preserving
map into {1, ..., t + 1} that its point matches, extended once per key at
the end of each row.  They are compared with the maps as sets, and the
points are listed, by dilate_integer_points, only to name a
counterexample.  The vertex round trip reads vertices() and tests their
int rows against the flat bound lists of PasmPolytope._bounds(); the lists
and the shape's row layout are read once per certificate.
"""

from __future__ import annotations

from itertools import chain
from operator import add, getitem
from typing import Sequence

from .matrices import Matrix, Scalar, _corner_rows, _inverse_corner_rows
from .polytope import PasmPolytope, _RowLayout, _within
from .shapes import Cell
from .skewposet import build_poset, enumerate_order_preserving_maps, in_order_polytope

PosetPoint = dict[Cell, Scalar]


def to_order_point(X: Matrix, poly: PasmPolytope) -> PosetPoint:
    """Corner sums of X restricted to the skew cells; lands in the order
    polytope of the cell poset."""
    if not poly.satisfies_inequalities(X):
        raise ValueError("matrix is not a point of the polytope")
    return dict(zip(poly.shape.cells(), _corner_image(X.rows, poly._row_layout())))


def from_order_point(g: PosetPoint, poly: PasmPolytope) -> Matrix:
    """Inverse of :func:`to_order_point` on the order polytope.

    The corner-sum matrix is completed with 0 on cells (i, j) with
    j <= lam_i and 1 on cells with j > nu_i, the values forced on every
    polytope point, then finite-differenced back to a matrix.
    """
    P = build_poset(poly.shape)
    if not in_order_polytope(P, g):
        raise ValueError("point is not in the order polytope")
    return Matrix(_from_order_values(tuple(map(g.__getitem__, P.elements)), poly._row_layout()))


def _corner_image(rows: Sequence[Sequence[Scalar]],
                  layout: Sequence[_RowLayout]) -> tuple[Scalar, ...]:
    """The corner sums of the grid on the skew cells, in row-major order,
    cut from its corner rows by the shape's row layout."""
    return tuple(chain.from_iterable(map(getitem, _corner_rows(rows), [r.cols for r in layout])))


def _from_order_values(vals: tuple[Scalar, ...],
                       layout: Sequence[_RowLayout]) -> tuple[tuple[Scalar, ...], ...]:
    """The rows of :func:`from_order_point`, given its values on the skew
    cells in row-major order and the shape's row layout; int values
    give int rows.  The values are not checked against the order polytope."""
    return _inverse_corner_rows([r.zeros + vals[r.vals] + r.ones for r in layout])


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

    * every vertex V of ``poly.vertices()`` survives the round trip
      ``from_order_point(to_order_point(V)) == V``: V is within the
      inequality description, and its image goes back to V through the
      inverse kernel of :func:`from_order_point`.  Both maps are affine and
      the vertices span the affine hull, so the corner-sum map is injective
      on the hull with an integral affine inverse;
    * the vertex images, lifted by 1, are distinct and are exactly the
      order-preserving maps into {1, 2}, the filter indicators plus 1.  This
      puts every image in the order polytope, so an image outside it fails
      here, not the round trip;
    * for each t <= t_max, the integer points of the t-th dilate biject
      onto the order-preserving maps into {1, ..., t + 1}, their images
      lifted by 1: the set of their images is contained in the maps, and
      the points are as many as their distinct images and the maps.  The
      images come from the scan alone, grouped by key; only when one of
      them is not such a map is ``poly.dilate_integer_points(t)`` listed,
      and its first matrix whose lifted image is not a map is the
      counterexample, or the dilate alone if there is none.

    t_max must be at least 1, so that some dilate is checked.  The dilate
    guardrail, which also checks its type, runs before any other work; it
    refuses only t_max >= 2, so t_max = 1 runs on every shape.
    """
    poly._check_dilate(t_max)
    if t_max < 1:
        raise ValueError(f"t_max must be >= 1, got {t_max}")
    P = build_poset(poly.shape)
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
        """The order-preserving maps of P into {1, ..., t + 1}: each is one
        more than the corner sums of the point of the t-th dilate it
        matches, as the scan yields it, so the vertex images are lifted by 1
        too."""
        return set(enumerate_order_preserving_maps(P, t + 1))

    # Round trip of every vertex on its int rows: the membership test of
    # to_order_point on the flat bound lists, then the inverse of its
    # corner-sum image.
    bounds = poly._bounds()
    layout = poly._row_layout()
    ones = (1,) * len(P)
    lifted = []
    for V in poly.vertices():
        image = _corner_image(V.rows, layout)
        if not _within(bounds, V.rows) or _from_order_values(image, layout) != V.rows:
            return fail("affine_unimodular", {"vertex": V.to_json_dict()})
        lifted.append(tuple(map(add, image, ones)))

    filters = order_maps(1)
    distinct = set(lifted)
    if len(distinct) != len(lifted) or distinct != filters:
        return fail("vertex_bijection",
                    {"images": sorted(tuple(v - 1 for v in image) for image in distinct)})

    # The scan hands over the images alone, grouped by key, and they are
    # compared as sets; the points are listed only to name the first one
    # whose image is not an order-preserving map.
    for t in range(1, t_max + 1):
        maps = filters if t == 1 else order_maps(t)
        images = poly._scan_images(t)
        mapped = set(images)
        if not mapped <= maps:
            bad = next((X for X in poly.dilate_integer_points(t)
                        if tuple(map(add, _corner_image(X.rows, layout), ones)) not in maps), None)
            return fail("vertex_bijection",
                        {"dilate": t} if bad is None else {"dilate": t, "point": bad.to_json_dict()})
        report["dilate_counts"].append([t, len(images), len(maps)])
        if len(mapped) != len(images) or mapped != maps:
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
