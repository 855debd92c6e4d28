"""Integral equivalences: corner-sum map onto the order polytope, its
inverse, and the antidiagonal translation onto full alternating sign
matrices.

The corner-sum map sends a polytope point to the restriction of its
northwest corner sums to the skew cells.  On the polytope, corner sums are
pinned to 0 on the lam region and to 1 everywhere east of the shape, which
is what makes the map invertible.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .matrices import (
    Matrix,
    Scalar,
    _corner_rows,
    convex_combination,
    corner_sums,
    inverse_corner_sums,
)
from .polytope import PasmPolytope
from .shapes import Cell
from .skewposet import (
    build_poset,
    enumerate_filters,
    enumerate_order_preserving_maps,
    filter_indicator,
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
    P = build_poset(poly.shape)
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


def _random_polytope_point(poly: PasmPolytope, rng: random.Random) -> Matrix:
    verts = poly.vertices()
    raw = [rng.randrange(0, 10) for _ in verts]
    if sum(raw) == 0:
        raw[0] = 1
    total = sum(raw)
    weights = [Fraction(w, total) for w in raw]
    return convex_combination(weights, verts)


def certify_integral_equivalence(poly: PasmPolytope, t_max: int, seed: int = 0) -> dict:
    """Computational certificate that the polytope and the order polytope of
    its cell poset are integrally equivalent.

    Checks, all exact:

    * the corner-sum map restricted to skew-cell coordinates is the
      unitriangular 0/1 containment matrix, and it acts affinely on random
      convex combinations of vertices;
    * it bijects vertices onto the filter indicators of the cell poset;
    * for each t <= t_max, it bijects the integer points of the t-th dilate
      onto the order-preserving maps into {0, ..., t}.

    t_max must be at least 1, so that some dilate is checked.
    """
    if t_max < 1:
        raise ValueError(f"t_max must be >= 1, got {t_max}")
    P = build_poset(poly.shape)
    cells = poly.shape.cells()
    d = len(cells)
    rng = random.Random(seed)
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

    # Unitriangularity: with cells in row-major order, the map from the
    # skew-cell entries of X to the corner sums is z |-> T z with
    # T[k][l] = [cell_l <= cell_k componentwise], lower triangular with 1s
    # on the diagonal.
    T = [[1 if (c2[0] <= c1[0] and c2[1] <= c1[1]) else 0 for c2 in cells] for c1 in cells]
    for k in range(d):
        if T[k][k] != 1 or any(T[k][l] != 0 for l in range(k + 1, d)):
            return fail("affine_unimodular", {"row": list(cells[k])})
    verts = poly.vertices()
    vertex_images = [to_order_point(V, poly) for V in verts]
    samples = [_random_polytope_point(poly, rng) for _ in range(5)]
    pairs = list(zip(verts, vertex_images))
    pairs += [(X, to_order_point(X, poly)) for X in samples]
    for X, g in pairs:
        z = [X.entry(i, j) for (i, j) in cells]
        for k, c in enumerate(cells):
            predicted = sum(T[k][l] * z[l] for l in range(d))
            if g[c] != predicted:
                return fail(
                    "affine_unimodular",
                    {"matrix": X.to_json_dict(), "cell": list(c)},
                )

    # Vertices correspond to filter indicators, bijectively.
    images = [tuple(g[c] for c in cells) for g in vertex_images]
    filters = enumerate_filters(P)
    indicator_set = {
        tuple(filter_indicator(P, f)[c] for c in cells) for f in filters
    }
    if len(set(images)) != len(images) or set(images) != indicator_set:
        return fail("vertex_bijection", {"images": sorted(set(images))})

    # Lattice points of dilates correspond to order-preserving maps into
    # {0, ..., t}, bijectively.  The scan's points are streamed as int rows
    # and only their corner sums on the skew cells are kept.
    index = [(i - 1, j - 1) for (i, j) in cells]
    for t in range(1, t_max + 1):
        poly._check_dilate(t)
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
