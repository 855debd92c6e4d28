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

from .matrices import Matrix, Scalar, _corner_rows, corner_sums, inverse_corner_sums
from .polytope import PasmPolytope
from .shapes import Cell
from .skewposet import (
    SkewPoset,
    build_poset,
    enumerate_filters,
    enumerate_order_preserving_maps,
    in_order_polytope,
)

PosetPoint = dict[Cell, Scalar]


def to_order_point(X: Matrix, poly: PasmPolytope) -> PosetPoint:
    """Corner sums of X restricted to the skew cells; lands in the order
    polytope of the cell poset."""
    if not poly.satisfies_inequalities(X):
        raise ValueError("matrix is not a point of the polytope")
    C = corner_sums(X)
    return {(i, j): C.entry(i, j) for (i, j) in poly.shape.cells()}


def from_order_point(g: PosetPoint, poly: PasmPolytope) -> Matrix:
    """Inverse of :func:`to_order_point` on the order polytope.

    The corner-sum matrix is completed with 0 on cells (i, j) with
    j <= lam_i and 1 on cells with j > nu_i, the values forced on every
    polytope point, then finite-differenced back to a matrix.
    """
    return _from_order_point(g, poly, build_poset(poly.shape))


def _from_order_point(g: PosetPoint, poly: PasmPolytope, P: SkewPoset) -> Matrix:
    """:func:`from_order_point`, given the cell poset P of the shape."""
    if not in_order_polytope(P, g):
        raise ValueError("point is not in the order polytope")
    lam, nu = poly.shape.lam, poly.shape.nu
    rows = []
    for i in range(1, poly.m + 1):
        row = []
        for j in range(1, poly.n + 1):
            if j <= lam.part(i):
                row.append(0)
            elif j <= nu.part(i):
                row.append(g[(i, j)])
            else:
                row.append(1)
        rows.append(row)
    return inverse_corner_sums(Matrix(rows))


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
      cell poset;
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

    # Round trip of every vertex through the library's own inverse map.
    images = []
    for V in poly.vertices():
        try:
            g = to_order_point(V, poly)
            back = _from_order_point(g, poly, P)
        except ValueError:
            back = None
        if back != V:
            return fail("affine_unimodular", {"vertex": V.to_json_dict()})
        images.append(tuple(g[c] for c in cells))

    # Vertices correspond to filter indicators, bijectively.
    indicators = {tuple(int(c in f) for c in cells) for f in enumerate_filters(P)}
    if len(set(images)) != len(images) or set(images) != indicators:
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
