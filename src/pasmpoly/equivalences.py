"""Integral equivalences: corner-sum map onto the order polytope, its
inverse, and the antidiagonal translation onto full alternating sign
matrices.

The corner-sum map sends a polytope point to the restriction of its
northwest corner sums to the skew cells.  On the polytope, corner sums are
pinned to 0 on the lam region and to 1 everywhere east of the shape, which
is what makes the map invertible.  The certificate checks the equivalence
by a vertex round trip through the inverse's kernel, and by counts:
the integer points of each small dilate, and at t = 1 the vertices, are as
many as the order-preserving maps, into which the points inject.  It uses
no randomness.  Both loops work per row.
The vertex round trip walks the row-pair graph: with mu_0 = n, row i of
the profile of mu is fixed by (mu_i, mu_{i+1}), under the unit vector at
mu_i as column sums, so each edge (i, mu_i, mu_{i+1}) is one row step,
checked once: the row's bounds, which give its column sums, and the
inverse of their accumulation, completed by 0/1, under the accumulated
column sums above.  A node mu_i keeps only its number of paths.
A dilate is checked by a census of the scan's count walk on the table the
census hands it: a cover of the cell poset is probed at the cell that ends
it where that table lets its step go negative, and at the end of each row
each key's slice on the cells is checked once against [0, t] and the
other slices, for all the points through it.  The points and the maps are
counted, not listed; the points are listed only to name a counterexample,
and no map is.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, chain
from operator import getitem
from typing import Sequence

from .matrices import Matrix, Scalar, _corner_rows, _inverse_corner_row, _inverse_corner_rows, vertex_matrix
from .polytope import PasmPolytope, _profile_row, _row_bounds, _row_within, _RowLayout, _scan
from .shapes import Cell, Partition
from .skewposet import SkewPoset, build_poset, enumerate_order_preserving_maps, in_order_polytope

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


def _census(poly: PasmPolytope, P: SkewPoset, t: int) -> tuple[int, bool, bool]:
    """(count, valid, distinct) for the integer points of the t-th dilate,
    from one count walk of the scan, with no point listed.

    Each cover a < b of the cell poset P joins b to its west or north
    neighbour; some key breaks it iff b's V (H) step from a, its upper
    bound cut to -1, reaches a key.  The census hands the scan the table it
    reads, with that probe only where the step's dilated lower bound is
    negative: nowhere on the paper's table.  At each row end ``close``
    files each key's slice; each must lie in [0, t], no two equal.

    count is the number of points.  valid says that no key broke the range
    or a cover, so every point's corner sums on the cells, plus 1, are an
    order-preserving map into {1, ..., t + 1}; distinct, that at every row
    end the slice determines the key, so those maps are distinct.
    """
    n, table, cuts = poly.n, poly._bounds(), {}
    for a, b in P.covers:
        i, c = P.elements[b]
        # b's step from a is bounded below by lo_v from the west, lo_h from the north.
        k, lo = (i - 1) * n + c - 1, 2 if P.elements[a][0] == i else 0
        if t * table[lo][k] < 0:
            cut = [t * xs[k] for xs in table]
            cut[lo + 1] = min(cut[lo + 1], -1)
            cuts.setdefault(k, []).append(cut)
    cols = [r.cols for r in poly._row_layout()]
    slices: list[list[tuple[int, ...]]] = [[] for _ in cols]
    broken = False

    def probe(k, step):
        nonlocal broken
        broken = broken or any(step(*cut) for cut in cuts.get(k, ()))

    def close(count, i, after):
        slices[i].append(after[cols[i]])
        return count

    count = sum(_scan(table, n, t, 1, close, probe if cuts else None))
    values = list(chain.from_iterable(chain.from_iterable(slices)))
    valid = not broken and (not values or (0 <= min(values) and max(values) <= t))
    return count, valid, all(len(set(row)) == len(row) for row in slices)


def certify_integral_equivalence(poly: PasmPolytope, t_max: int) -> dict:
    """Computational certificate that the polytope and the order polytope of
    its cell poset are integrally equivalent.

    Every comparison is of value tuples over the skew cells in row-major
    order: corner sums of points against order-preserving maps of the cell
    poset, counted once for each t.  Checks, all exact:

    * every vertex V, the profile of a partition between lam and nu, is
      within the inequality description, and its corner sums go back to V
      through the inverse kernel of :func:`from_order_point`.  Both are
      checked once per edge (i, mu_i, mu_{i+1}) of the row-pair graph, whose
      paths are the vertices, under the unit vector at mu_i as the column
      sums above: the row's bounds give its column sums, and the inverse of
      their accumulation, the corner-sum row in the 0/1 completion of
      :func:`from_order_point`, not read by :func:`to_order_point`, must
      give back the row.  Both maps are affine and the vertices span the
      affine hull, so the corner-sum map is injective on the hull with an
      integral affine inverse.  The counterexample is the first vertex of
      ``poly.vertices()`` through a failed edge;
    * the paths, distinct int vertices by construction, are as many as the
      order-preserving maps into {1, 2}.  The round trip puts them among the
      integer points of the t = 1 dilate, so once the census finds as many
      points as maps, the vertices are exactly those points;
    * for each t <= t_max, the integer points of the t-th dilate biject
      onto the order-preserving maps into {1, ..., t + 1}, their images
      lifted by 1.  The census of :func:`_census`, on the table it hands
      the scan, proves that the images are such maps and that the points
      inject into them, so the points biject onto the maps iff they are as
      many.  Only when an image is not such a map is
      ``poly.dilate_integer_points(t)`` listed; a lifted image is a map iff
      the image lies in t O(P), and the first matrix whose image does not
      is the counterexample, or the dilate alone if there is none.

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

    # Round trip of every vertex on the row-pair graph.  Layer i maps each
    # value a of mu_i (mu_0 = n) to its number of paths; each edge b in
    # [lam_{i+1}, min(nu_{i+1}, a)] is one row step.  The node fixes the
    # column sums above the row, e_a (zeros for a = n): a passing step
    # gives e_b, whose accumulation is the completed corner-sum row.
    m, n, layout = poly.m, poly.n, poly._row_layout()
    bounds, lam = _row_bounds(poly._bounds(), n), [r.cols.start for r in layout]
    layer, failed = {n: 1}, []
    for i, r in enumerate(layout):
        reached: dict[int, int] = {}
        for a, paths in layer.items():
            above = _profile_row(n, a, n)
            for b in range(lam[i], min(r.cols.stop, a) + 1):
                row = _profile_row(a, b, n)
                sums = _row_within(bounds[i], above, row)
                if sums is not None and _inverse_corner_row(r.zeros + tuple(accumulate(sums))[r.cols] + r.ones,
                                                            tuple(accumulate(above))) == row:
                    reached[b] = reached.get(b, 0) + paths
                else:
                    # The least mu through the edge: earlier parts max(lam_k, a), later ones lam_k.
                    failed.append([max(x, a) for x in lam[:i]] + [b] + lam[i + 1:])
        layer = reached
    if failed:
        return fail("affine_unimodular", {"vertex": vertex_matrix(Partition(min(failed)), m, n).to_json_dict()})
    vertices = sum(layer.values())

    # The census counts the points and checks their images, each point's
    # corner sums on the cells lifted by 1 into {1, ..., t + 1}; the maps
    # are counted.  A lifted image is such a map iff the image lies in
    # t O(P), which names the first bad point when the census finds one.
    # At t = 1 the vertices must first be as many as the maps.
    for t in range(1, t_max + 1):
        total = sum(1 for _ in enumerate_order_preserving_maps(P, t + 1))
        if t == 1 and vertices != total:
            return fail("vertex_bijection", {"vertices": vertices, "maps": total})
        count, valid, injective = _census(poly, P, t)
        if not valid:
            bad = next((X for X in poly.dilate_integer_points(t)
                        if not in_order_polytope(P, {c: Fraction(x, t) for c, x in
                                                     zip(P.elements, _corner_image(X.rows, layout))})), None)
            return fail("vertex_bijection",
                        {"dilate": t} if bad is None else {"dilate": t, "point": bad.to_json_dict()})
        report["dilate_counts"].append([t, count, total])
        if not injective or count != total:
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
