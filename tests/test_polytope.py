import random
from fractions import Fraction
from itertools import chain, combinations, pairwise, product
from typing import Iterator

import pytest
from hypothesis import assume, given, strategies as st

from pasmpoly import (
    Matrix,
    Partition,
    PasmPolytope,
    ResourceLimit,
    SkewShape,
    build_poset,
    certify_integral_equivalence,
    count_linear_extensions,
    enumerate_between,
    face_labeling,
    interpolate_polynomial,
    is_extreme,
    order_polynomial_value,
    vertex_matrix,
)
import pasmpoly.polytope
from pasmpoly._linalg import rank
from pasmpoly.equivalences import _census, _corner_image
from pasmpoly.facelattice import Edge
from pasmpoly.matrices import _corner_rows
from pasmpoly.polytope import DILATE_SIZE_LIMIT, _scan, _within
from pasmpoly.skewposet import order_polynomial_values

from families import all_skew_shapes, in_three_boxes, staircase
from golden import RATIONAL_POINT_422_31, VERTICES_422_31
from points import (
    TablePolytope,
    column_partial_sums,
    convex_combination,
    listing_census,
    narrowed_bounds,
    row_partial_sums,
)
from test_linalg import fraction_convex_combination_exists, fraction_rank

F = Fraction

EXAMPLE = SkewShape(Partition([4, 2, 2]), Partition([3, 1]), 4, 5)


def example_polytope():
    return PasmPolytope(EXAMPLE)


# The paper's form of the inequality description, which the library states
# as per-edge bounds on the partial sums: entries in the lam region
# (j <= lam_i) and strictly east of the border strip of nu
# (j > nu_{i-1} + 1, with nu_0 := nu_1) are 0.
def _fixed_zeros(shape: SkewShape) -> frozenset[tuple[int, int]]:
    lam, nu = shape.lam, shape.nu
    return frozenset(
        (i, j)
        for i in range(1, shape.m + 1)
        for j in range(1, shape.n + 1)
        if j <= lam.part(i) or j > nu.part(max(i - 1, 1)) + 1
    )


def _zero_form_member(poly: PasmPolytope, X: Matrix) -> bool:
    """Membership by the paper's form: the fixed zeros, every partial sum in
    [0, 1], the first row and column summing to 1 and the others to 0."""
    if any(X.entry(i, j) != 0 for (i, j) in _fixed_zeros(poly.shape)):
        return False
    col = [0] * (poly.n + 1)
    for i in range(1, poly.m + 1):
        row_sum = 0
        for j in range(1, poly.n + 1):
            x = X.entry(i, j)
            row_sum += x
            col[j] += x
            if not (0 <= row_sum <= 1) or not (0 <= col[j] <= 1):
                return False
        if row_sum != (1 if i == 1 else 0):
            return False
    if col[1] != 1:
        return False
    return all(col[j] == 0 for j in range(2, poly.n + 1))


# The cell-by-cell scan that the row-memoized scan replaced, kept as the
# oracle it must match point for point and in order.
def _scan_integer_points(poly: PasmPolytope, t: int) -> Iterator[Matrix]:
    """All integer matrices of the t-dilate, by row-major backtracking.

    Row/column partial sums are kept in [0, t]; row targets are t for
    row 1 and 0 otherwise, column targets t for column 1 and 0 otherwise.
    """
    m, n = poly.m, poly.n
    zeros = _fixed_zeros(poly.shape)
    free_in_row_after = [[0] * (n + 2) for _ in range(m + 1)]
    for i in range(1, m + 1):
        for j in range(n, 0, -1):
            free_in_row_after[i][j] = free_in_row_after[i][j + 1] + (
                (i, j) not in zeros
            )
    last_free_row = [0] * (n + 1)
    for j in range(1, n + 1):
        for i in range(1, m + 1):
            if (i, j) not in zeros:
                last_free_row[j] = i

    grid = [[0] * (n + 1) for _ in range(m + 1)]
    col_sum = [0] * (n + 1)

    def row_target(i: int) -> int:
        return t if i == 1 else 0

    def col_target(j: int) -> int:
        return t if j == 1 else 0

    def rec(i: int, j: int, row_sum: int) -> Iterator[Matrix]:
        if j > n:
            if row_sum != row_target(i):
                return
            if i == m:
                yield Matrix([row[1:] for row in grid[1:]])
            else:
                yield from rec(i + 1, 1, 0)
            return
        if (i, j) in zeros:
            choices = (0,)
        else:
            lo = max(-row_sum, -col_sum[j])
            hi = min(t - row_sum, t - col_sum[j])
            choices = range(lo, hi + 1)
        remaining = free_in_row_after[i][j + 1]
        for x in choices:
            new_row = row_sum + x
            # The rest of the row can move the partial sum by at most t
            # per free cell (and not at all if none remain).
            if abs(row_target(i) - new_row) > remaining * t:
                continue
            new_col = col_sum[j] + x
            # Once the last free cell of a column is placed, its partial
            # sum must already equal the column target.
            if i >= last_free_row[j] and new_col != col_target(j):
                continue
            grid[i][j] = x
            col_sum[j] = new_col
            yield from rec(i, j + 1, new_row)
            col_sum[j] = col_sum[j] - x
            grid[i][j] = 0

    # A column with no free cell at all can never reach a nonzero target.
    for j in range(1, n + 1):
        if last_free_row[j] == 0 and col_target(j) != 0:
            return
    yield from rec(1, 1, 0)


def test_satisfies_inequalities_on_vertices():
    poly = example_polytope()
    for M in VERTICES_422_31.values():
        assert poly.satisfies_inequalities(M)


def test_satisfies_inequalities_on_rational_point():
    # A generic interior-ish point; in particular the entry at (2,5) is
    # nonzero, which sits in the last column of the border strip.
    assert example_polytope().satisfies_inequalities(RATIONAL_POINT_422_31)


def test_satisfies_inequalities_fixed_zero_violation():
    poly = PasmPolytope(SkewShape(Partition([1]), Partition([1]), 2, 2))
    assert not poly.satisfies_inequalities(Matrix([[1, 0], [0, 0]]))
    assert poly.satisfies_inequalities(Matrix([[0, 1], [1, -1]]))


def _exchange(X: Matrix, i: int, k: int, j: int, l: int, delta: F) -> Matrix:
    """X plus delta at the 0-based cells (i, j) and (k, l), minus delta at
    (i, l) and (k, j): every line sum stays."""
    rows = [list(r) for r in X.rows]
    rows[i][j] += delta
    rows[i][l] -= delta
    rows[k][j] -= delta
    rows[k][l] += delta
    return Matrix(rows)


@st.composite
def points_near_the_polytope(draw):
    """A shape in a box at least its minimal one, and a vertex or a rational
    convex combination of vertices, as it is, with one entry moved, or moved
    by a 2 x 2 exchange that keeps every line sum."""
    minimal = draw(st.sampled_from(all_skew_shapes(5)))
    shape = SkewShape(minimal.nu, minimal.lam,
                      minimal.m + draw(st.integers(0, 2)), minimal.n + draw(st.integers(0, 2)))
    verts = PasmPolytope(shape).vertices()
    picked = draw(st.lists(st.sampled_from(verts), min_size=1, max_size=4))
    weights = draw(st.lists(st.integers(1, 6), min_size=len(picked), max_size=len(picked)))
    X = convex_combination([F(w, sum(weights)) for w in weights], picked)
    move = draw(st.sampled_from(["none", "entry", "exchange"]))
    if move != "none":
        i, k = draw(st.integers(0, shape.m - 1)), draw(st.integers(0, shape.m - 1))
        j, l = draw(st.integers(0, shape.n - 1)), draw(st.integers(0, shape.n - 1))
        delta = draw(st.sampled_from([F(1), F(-1), F(1, 2), F(-1, 3)]))
        if move == "exchange":
            X = _exchange(X, i, k, j, l, delta)
        else:
            rows = [list(r) for r in X.rows]
            rows[i][j] += delta
            X = Matrix(rows)
    return PasmPolytope(shape), X


@given(points_near_the_polytope())
def test_membership_matches_the_zero_form(instance):
    poly, X = instance
    assert poly.satisfies_inequalities(X) == _zero_form_member(poly, X)


def test_membership_matches_the_zero_form_near_the_centroid():
    # Exchanges keep the line sums, so only the partial-sum bounds and the
    # fixed zeros decide these points.
    for minimal in all_skew_shapes(4):
        for shape in in_three_boxes(minimal):
            poly = PasmPolytope(shape)
            verts = poly.vertices()
            centroid = convex_combination([F(1, len(verts))] * len(verts), verts)
            for i, k in combinations(range(shape.m), 2):
                for j, l in combinations(range(shape.n), 2):
                    for delta in (F(1, 2), F(-1, 2)):
                        X = _exchange(centroid, i, k, j, l, delta)
                        assert poly.satisfies_inequalities(X) == _zero_form_member(poly, X), (shape, X)


def test_satisfies_inequalities_dimension_mismatch():
    with pytest.raises(ValueError):
        example_polytope().satisfies_inequalities(Matrix([[1]]))


def test_free_cells_are_skew_cells_plus_strip():
    # The entries the paper's zero form leaves free.
    for shape in all_skew_shapes(6):
        grid = {(i, j) for i in range(1, shape.m + 1) for j in range(1, shape.n + 1)}
        expected = set(shape.cells()) | set(shape.border_strip())
        assert grid - _fixed_zeros(shape) == expected


def test_vertices_worked_example():
    poly = example_polytope()
    verts = poly.vertices()
    assert len(verts) == 10
    assert set(verts) == set(VERTICES_422_31.values())


def test_vertices_degenerate():
    lam = Partition([2, 1])
    poly = PasmPolytope(SkewShape(lam, lam))
    assert poly.vertices() == [vertex_matrix(lam, 3, 3)]


def test_vertices_staircase_catalan():
    for n, cat in ((2, 2), (3, 5), (4, 14)):
        poly = PasmPolytope(SkewShape(staircase(n), Partition(), n, n))
        assert len(poly.vertices()) == cat


def test_integer_points_brute_examples():
    poly = PasmPolytope(SkewShape(Partition([1]), Partition(), 2, 2))
    assert set(poly.dilate_integer_points(1)) == {
        Matrix([[1, 0], [0, 0]]),
        Matrix([[0, 1], [1, -1]]),
    }
    fixed = PasmPolytope(SkewShape(Partition([1]), Partition([1]), 2, 2))
    assert fixed.dilate_integer_points(1) == [Matrix([[0, 1], [1, -1]])]
    point = PasmPolytope(SkewShape(Partition(), Partition(), 1, 1))
    assert point.dilate_integer_points(1) == [Matrix([[1]])]


def test_scan_matches_cell_by_cell_oracle_sweep():
    for minimal in all_skew_shapes(7):
        if minimal.size > 8:
            continue
        for shape in in_three_boxes(minimal):
            poly = PasmPolytope(shape)
            for t in range(4):
                assert poly.dilate_integer_points(t) == list(_scan_integer_points(poly, t)), (shape, t)


@st.composite
def boxed_skew_shapes(draw, rows=4, cols=5, max_size=DILATE_SIZE_LIMIT):
    """A skew shape in an m x n box, m <= rows, n <= cols, of at most
    max_size cells (by default the dilate scan's guardrail of 8)."""
    m = draw(st.integers(1, rows))
    n = draw(st.integers(1, cols))
    nu = sorted(draw(st.lists(st.integers(0, n - 1), min_size=m - 1, max_size=m - 1)), reverse=True)
    # Sorting a pointwise-smaller sequence keeps it inside nu.
    lam = sorted((draw(st.integers(0, part)) for part in nu), reverse=True)
    assume(sum(nu) - sum(lam) <= max_size)
    return SkewShape(Partition(nu), Partition(lam), m, n)


def _oracle_image(P: Matrix, cells) -> tuple[int, ...]:
    """The corner sums of P on the given cells plus 1, each summed over its
    northwest block."""
    return tuple(1 + sum(P.entry(a, b) for a in range(1, i + 1) for b in range(1, j + 1))
                 for i, j in cells)


@given(boxed_skew_shapes(), st.integers(0, 3), st.data())
def test_scan_matches_cell_by_cell_oracle_boxed(shape, t, data):
    # The one cell walk, with each of its payloads: the points in order,
    # with the images the certificate reads off them, the certificate's
    # census of their images, and the counts; the points and counts also
    # under a narrowed mid-row or column bound.
    poly = PasmPolytope(shape)
    oracle = list(_scan_integer_points(poly, t))
    cells, layout = shape.cells(), poly._row_layout()
    expected = [(P.rows, _oracle_image(P, cells)) for P in oracle]
    points = poly.dilate_integer_points(t)
    assert points == oracle
    assert [(X.rows, tuple(c + 1 for c in _corner_image(X.rows, layout))) for X in points] == expected
    assert _census(poly, build_poset(shape), t) == listing_census(poly, t, [P.rows for P in oracle])
    assert poly.dilate_lattice_points(t).count == len(oracle)

    narrowable = _narrowable_edges(poly)
    if narrowable:
        edge, lo, hi = data.draw(st.sampled_from(narrowable))
        value = data.draw(st.sampled_from((lo, hi)))
        narrowed = TablePolytope(shape, narrowed_bounds(poly, edge, value, value))
        kept = [P for P in oracle if _partial_sum(P, edge) == t * value]
        assert narrowed.dilate_lattice_points(t).count == len(kept)
        assert [X.rows for X in narrowed.dilate_integer_points(t)] == [P.rows for P in kept]


def _narrowable_edges(poly: PasmPolytope) -> list[tuple[Edge, int, int]]:
    """The two-valued bounds whose pinning can kill a scan key partway:
    the H edges short of the last column, and every V edge."""
    return [(edge, min(labels), max(labels)) for edge, labels in face_labeling(poly).items()
            if len(labels) > 1 and (edge[0] == "V" or edge[2] < poly.n)]


def _partial_sum(P: Matrix, edge: Edge) -> int:
    """The partial sum of P on a grid edge."""
    kind, i, j = edge
    return row_partial_sums(P, i)[j - 1] if kind == "H" else column_partial_sums(P, j)[i - 1]


def test_scan_on_a_narrowed_mid_row_bound_matches_the_filtered_oracle():
    # Pinning a two-valued row partial sum short of the last column, or a
    # two-valued column partial sum, makes keys of the cell walk die
    # partway: each entry must obey the H bound over the entry above it and
    # the V step from its west neighbour.
    # The scan must still list exactly the oracle's points that obey the
    # pin, in order.
    poly = example_polytope()
    narrowable = _narrowable_edges(poly)
    assert {edge[0] for edge, _, _ in narrowable} == {"H", "V"}
    pins = [(edge, value, TablePolytope(EXAMPLE, narrowed_bounds(poly, edge, value, value)))
            for edge, lo, hi in narrowable for value in (lo, hi)]
    for t in (1, 2, 3):
        oracle = list(_scan_integer_points(poly, t))
        for edge, value, narrowed in pins:
            kept = [P for P in oracle if _partial_sum(P, edge) == t * value]
            assert 0 < len(kept) < len(oracle)
            assert narrowed.dilate_integer_points(t) == kept, (edge, value, t)
            assert narrowed.dilate_lattice_points(t).count == len(kept), (edge, value, t)


def test_one_pinned_edge_narrows_every_reader_of_the_bound_lists():
    # The face labeling, the membership test, the scan and the certificate
    # read the one bound table: pinning the two-valued H(2, 4) of
    # (4,2,2)/(3,1) to 0 narrows all four alike.
    poly = example_polytope()
    edge = ("H", 2, 4)
    labeling, verts = face_labeling(poly), poly.vertices()
    assert labeling[edge] == frozenset({0, 1})
    kept = [V for V in verts if _partial_sum(V, edge) == 0]
    assert 0 < len(kept) < len(verts)
    narrowed = TablePolytope(EXAMPLE, narrowed_bounds(poly, edge, 0, 0))
    assert face_labeling(narrowed) == {**labeling, edge: frozenset({0})}
    assert [V for V in verts if narrowed.satisfies_inequalities(V)] == kept
    assert sorted(X.rows for X in narrowed.dilate_integer_points(1)) == sorted(V.rows for V in kept)
    assert narrowed.dilate_lattice_points(1).count == len(kept)
    report = certify_integral_equivalence(narrowed, 1)
    assert report["affine_unimodular"] is False
    V = Matrix.from_json_dict(report["counterexample"]["vertex"])
    assert V in verts and V not in kept


def test_the_bound_table_is_built_once_per_polytope():
    # Every reader gets the table of the first call; a new polytope of the
    # same shape builds an equal one.
    poly = example_polytope()
    table = poly._bounds()
    certify_integral_equivalence(poly, 4)
    assert poly._bounds() is table
    assert example_polytope()._bounds() == table


def _brute_interval(lam: Partition, nu: Partition) -> list[Partition]:
    """The partitions between lam and nu, as the weakly decreasing tuples of
    the product of the part ranges [lam_k, nu_k], in the product's
    lexicographic order."""
    ranges = [range(lam.part(k), nu.part(k) + 1) for k in range(1, len(nu) + 1)]
    return [Partition(mu) for mu in product(*ranges) if all(a >= b for a, b in pairwise(mu))]


def test_the_interval_walk_matches_the_brute_force_interval():
    # enumerate_between and vertices() read one walk of [lam, nu]; the
    # product of the part ranges checks both, order included.
    for shape in all_skew_shapes(7):
        brute = _brute_interval(shape.lam, shape.nu)
        assert enumerate_between(shape.lam, shape.nu) == brute, shape
        for boxed in in_three_boxes(shape):
            oracle = [vertex_matrix(mu, boxed.m, boxed.n) for mu in brute]
            assert PasmPolytope(boxed).vertices() == oracle, boxed


@given(boxed_skew_shapes(rows=5, cols=6, max_size=30))
def test_sparse_vertex_rows_match_the_profile_oracle(shape):
    # The boxes are minimal or larger: nu may have fewer than m - 1 parts,
    # and parts below n - 1.
    poly = PasmPolytope(shape)
    oracle = [vertex_matrix(mu, shape.m, shape.n) for mu in enumerate_between(shape.lam, shape.nu)]
    verts = poly.vertices()
    assert verts == oracle
    assert all(type(x) is int for v in verts for row in v.rows for x in row)
    flat = [v.flatten() for v in oracle]
    diffs = [[x - b for x, b in zip(p, flat[0])] for p in flat[1:]]
    assert poly.dimension() == fraction_rank(diffs)


def _assert_t_at_most_one_scans_list_the_vertices(poly):
    verts = set(poly.vertices())
    assert set(poly.dilate_integer_points(1)) == verts
    assert poly.dilate_lattice_points(0).count == 1
    assert poly.dilate_lattice_points(1).count == len(verts)


def test_integer_points_equal_vertices_sweep():
    # Computational verification of the inequality description.  The t = 1
    # scan lists exactly the partial ASMs that fit the face labeling, so this
    # is also the check that the polytope is that face of PASM(m, n).
    for shape in all_skew_shapes(8):
        _assert_t_at_most_one_scans_list_the_vertices(PasmPolytope(shape))


def test_t_at_most_one_scans_run_beyond_eight_cells():
    # The dilate guardrail refuses only t >= 2: at t <= 1 the scan lists no
    # more than the vertices.
    for shape in (SkewShape(Partition([9]), Partition(), 2, 10),
                  SkewShape(Partition([4, 4, 4]), Partition()),
                  SkewShape(Partition([6] * 5), Partition())):
        assert shape.size > DILATE_SIZE_LIMIT
        _assert_t_at_most_one_scans_list_the_vertices(PasmPolytope(shape))


def test_t_one_scan_states_are_corner_sum_steps(monkeypatch):
    # The premise of the guardrail's pass at t = 1: every key at the end of
    # a row is a corner-sum row that steps once from 0 to 1, and no column
    # of the cell walk holds more than (n + 1)(n + 2)/2 <= (n + 1)^2 keys.
    shapes = [box for shape in all_skew_shapes(6) for box in in_three_boxes(shape)]
    shapes.append(SkewShape(Partition([9] * 8), Partition()))
    cell = pasmpoly.polytope._cell
    held = []

    def counted_cell(*args):
        keys = cell(*args)
        held.append(len(keys))
        return keys

    monkeypatch.setattr(pasmpoly.polytope, "_cell", counted_cell)
    for shape in shapes:
        n = shape.n
        steps = {(0,) * j + (1,) * (n - j) for j in range(n)}
        levels = [set() for _ in range(shape.m)]

        def close(count, i, after):
            levels[i].add(after)
            return count

        held.clear()
        _scan(PasmPolytope(shape)._bounds(), n, 1, 1, close)
        assert all(levels) and all(level <= steps for level in levels), shape
        assert len(held) == shape.m * n and max(held) <= (n + 1) * (n + 2) // 2, shape


def test_count_walk_beyond_the_guardrail():
    # The count walk of the scan, called past the dilate guardrail, against
    # the order polynomial: L(t) = Omega(P, t + 1).
    for nu, t_max in (([6] * 5, 3), ([9] * 8, 2)):
        shape = SkewShape(Partition(nu), Partition())
        assert shape.size > DILATE_SIZE_LIMIT
        poly, values = PasmPolytope(shape), order_polynomial_values(build_poset(shape), t_max + 1)
        for t in range(t_max + 1):
            counts = _scan(poly._bounds(), poly.n, t, 1, lambda count, i, after: count)
            assert sum(counts) == values[t], (nu, t)
    assert values[2] == 118195220


def test_count_walk_with_wide_fields():
    # At t = 40 the column prefix sums of the H bounds of (2,1) reach
    # 3 * 40 = 120, so each field of a packed key is 7 bits wide.
    shape = SkewShape(Partition([2, 1]), Partition())
    poly, P = PasmPolytope(shape), build_poset(shape)
    omega = order_polynomial_values(P, 41)[40]
    assert sum(_scan(poly._bounds(), poly.n, 40, 1, lambda count, i, after: count)) == omega
    assert _census(poly, P, 40) == (omega, True, True)


def _table_points(table, m, n, t):
    """The integer points of the t-dilate of a bound table on an m x n grid,
    in lexicographic order, with no cell walk: each row's H partial sums run
    over the product of their ranges, and the grids of the rows they
    difference to are filtered by _within."""
    scaled = tuple([t * x for x in xs] for xs in table)
    lo_h, hi_h = scaled[:2]
    rows = []
    for k in range(0, m * n, n):
        sums = product(*(range(lo_h[c], hi_h[c] + 1) for c in range(k, k + n)))
        rows.append([tuple(b - a for a, b in pairwise((0,) + h)) for h in sums])
    return sorted(grid for grid in product(*rows) if _within(scaled, grid))


def test_scan_with_negative_corner_sums_matches_the_table_product():
    # Bounds of -1 put a bias under every field of a packed key.  An H or V
    # edge of (2,1) widened by one each way keeps every corner sum >= 0, as
    # the other step's bound at its cell holds it; with both steps of a cell
    # widened, some points have a corner sum below 0.
    shape = SkewShape(Partition([2, 1]), Partition())
    poly, (m, n) = PasmPolytope(shape), (shape.m, shape.n)
    negative = 0
    for k in range(m * n):
        for sides in ((0,), (2,), (0, 2)):
            widened = [list(xs) for xs in poly._bounds()]
            for side in sides:
                widened[side][k] -= 1
                widened[side + 1][k] += 1
            walked = TablePolytope(shape, widened)
            for t in (0, 1, 2):
                points = _table_points(widened, m, n, t)
                assert [X.rows for X in walked.dilate_integer_points(t)] == points, (k, sides, t)
                assert walked.dilate_lattice_points(t).count == len(points)
                negative += any(min(row) < 0 for grid in points for row in _corner_rows(grid))
    assert negative


def test_guardrails_raise_resource_limit():
    assert issubclass(ResourceLimit, ValueError)
    big = PasmPolytope(SkewShape(Partition([5, 4]), Partition()))
    for scan in (big.dilate_lattice_points, big.dilate_integer_points):
        with pytest.raises(ResourceLimit, match=r"guardrail.*\|nu/lam\| = 9, t = 2"):
            scan(2)
    for scan in (example_polytope().dilate_lattice_points, example_polytope().dilate_integer_points):
        with pytest.raises(ResourceLimit, match="t = 5"):
            scan(5)
        # A negative factor is bad input, not a resource limit.
        with pytest.raises(ValueError) as info:
            scan(-1)
        assert not isinstance(info.value, ResourceLimit)


def test_dimension_examples():
    assert example_polytope().dimension() == 4
    lam = Partition([2, 1])
    assert PasmPolytope(SkewShape(lam, lam)).dimension() == 0
    assert PasmPolytope(SkewShape(Partition([1]), Partition(), 2, 2)).dimension() == 1


def test_dimension_equals_skew_size_sweep():
    for shape in all_skew_shapes(7):
        assert PasmPolytope(shape).dimension() == shape.size


def test_dimension_ranks_the_first_row_and_the_distinct_steps(monkeypatch):
    # One rank call on at most d + 1 rows, against the rank of every vertex
    # row as the oracle.
    calls = []

    def spy(rows):
        rows = list(rows)
        calls.append(len(rows))
        return rank(rows)

    monkeypatch.setattr(pasmpoly.polytope, "rank", spy)
    for shape in chain.from_iterable(map(in_three_boxes, all_skew_shapes(7))):
        poly = PasmPolytope(shape)
        calls.clear()
        dim = poly.dimension()
        assert len(calls) == 1 and calls[0] <= shape.size + 1, shape
        assert dim == rank([V.flatten() for V in poly.vertices()]) - 1, shape


def _walk_steps(shape: SkewShape) -> tuple[list, list]:
    """The first vertex of the walk of [lam, nu], flattened, and each step's
    ((k, mu_k), difference): k is the first 0-based part that the step
    changed, mu_k that part before the step, and the difference of the two
    vertices, built by vertex_matrix, is the frozenset of its nonzero
    (flat index, entry) items."""
    m, n = shape.m, shape.n
    mus = [tuple(mu.part(i) for i in range(1, m + 1)) for mu in enumerate_between(shape.lam, shape.nu)]
    flats = [vertex_matrix(Partition(mu), m, n).flatten() for mu in mus]
    steps = []
    for (old, a), (mu, b) in pairwise(zip(mus, flats)):
        k = next(i for i, (x, y) in enumerate(zip(old, mu)) if x != y)
        steps.append(((k, old[k]), frozenset((p, y - x) for p, (x, y) in enumerate(zip(a, b)) if x != y)))
    return flats[0], steps


def _assert_one_difference_per_key(shape: SkewShape) -> None:
    # Two steps with the same (k, mu_k) have the same difference, two with
    # different keys have different ones, and there are |nu/lam| keys.  So
    # the rows dimension() ranks, the first vertex and one difference per
    # key, are the first vertex and every distinct consecutive difference,
    # each once.
    first, steps = _walk_steps(shape)
    by_key = {}
    for key, diff in steps:
        assert by_key.setdefault(key, diff) == diff, (shape, key)
    assert len(by_key) == shape.size, shape
    assert len(set(by_key.values())) == len(by_key), shape
    ranked = []

    def spy(rows):
        ranked.extend(rows)
        return rank(ranked)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pasmpoly.polytope, "rank", spy)
        assert PasmPolytope(shape).dimension() == shape.size
    assert ranked[0] == {p: x for p, x in enumerate(first) if x}, shape
    assert len(ranked) - 1 == len(by_key), shape
    assert {frozenset(row.items()) for row in ranked[1:]} == set(by_key.values()) == {d for _, d in steps}, shape


def test_dimension_builds_one_difference_per_part_and_old_value():
    for shape in chain.from_iterable(map(in_three_boxes, all_skew_shapes(7))):
        _assert_one_difference_per_key(shape)


@given(boxed_skew_shapes(rows=5, cols=6, max_size=30))
def test_dimension_builds_one_difference_per_part_and_old_value_boxed(shape):
    _assert_one_difference_per_key(shape)


def test_a_difference_keyed_by_its_part_alone_misses_the_dimension():
    # A key without the old value keeps one difference per part, the
    # first: on (2), part 1 steps 0 -> 1 -> 2, and the one difference kept
    # gives dimension 1, not 2.
    short = []
    for shape in all_skew_shapes(7):
        first, steps = _walk_steps(shape)
        by_part = {}
        for (k, _), diff in steps:
            by_part.setdefault(k, diff)
        if rank([first, *map(dict, by_part.values())]) - 1 != shape.size:
            short.append(shape)
    assert SkewShape(Partition([2]), Partition()) in short


def test_is_extreme():
    verts = example_polytope().vertices()
    for k, v in enumerate(verts):
        assert is_extreme(v, verts[:k] + verts[k + 1:])
    mid = convex_combination([F(1, 2), F(1, 2)], [verts[0], verts[1]])
    assert not is_extreme(mid, [verts[0], verts[1]])
    assert not is_extreme(verts[0], verts)  # the matrix itself is present
    assert is_extreme(verts[0], [])
    with pytest.raises(ValueError):
        is_extreme(verts[0], [Matrix([[1]])])


def _no_lp(monkeypatch):
    def refuse(target, others):
        raise AssertionError("the simplex ran")

    monkeypatch.setattr(pasmpoly.polytope, "convex_combination_exists", refuse)


def test_vertices_are_self_separated(monkeypatch):
    """Every vertex is proved extreme by the separation certificate alone."""
    _no_lp(monkeypatch)
    shapes = all_skew_shapes(5) + [
        SkewShape(staircase(6), Partition()),
        SkewShape(Partition([4, 4, 4]), Partition()),
    ]
    for shape in shapes:
        verts = PasmPolytope(shape).vertices()
        for k, v in enumerate(verts):
            assert is_extreme(v, verts[:k] + verts[k + 1:])


def test_is_extreme_without_self_separation_asks_the_simplex(monkeypatch):
    X, others = Matrix([[1, 0]]), [Matrix([[2, 0]])]
    assert is_extreme(X, others)  # <X, X> = 1 < 2 = <X, V>, yet X is extreme
    _no_lp(monkeypatch)
    with pytest.raises(AssertionError, match="simplex"):
        is_extreme(X, others)


def test_rational_point_is_separated_over_its_nonzeros(monkeypatch):
    # X has a zero and a negative entry; the separation products run over its
    # nonzeros only, and here they decide: <X, X> = 13/36 exceeds every <X, V>.
    target = [F(1, 2), 0, F(-1, 3)]
    others = [[0, 1, 0], [F(1, 4), 0, 0], [0, 5, F(1, 3)], [F(2, 3), -4, F(1, 2)]]
    assert not fraction_convex_combination_exists(target, others)
    with monkeypatch.context() as patched:
        _no_lp(patched)
        assert is_extreme(Matrix([target]), [Matrix([o]) for o in others])
    # A point that agrees with X on its support and is free elsewhere ties
    # <X, X>; with its mirror image X is their midpoint, which the simplex finds.
    shadows = [[F(1, 2), 7, F(-1, 3)], [F(1, 2), -7, F(-1, 3)]]
    assert fraction_convex_combination_exists(target, shadows)
    assert not is_extreme(Matrix([target]), [Matrix([o]) for o in others + shadows])


@st.composite
def sign_point_sets(draw):
    """A 0/1/-1 target and 0/1/-1 points.  Besides random targets, the set may
    hold the target itself, or a point that agrees with the target on its
    support (<X, V> = <X, X>), which the functional X does not separate."""
    dim = draw(st.integers(1, 5))
    vec = st.lists(st.integers(-1, 1), min_size=dim, max_size=dim)
    target = draw(vec)
    others = draw(st.lists(vec, min_size=1, max_size=6))
    kind = draw(st.sampled_from(["random", "member", "shadow"]))
    if kind == "member":
        others.append(list(target))
    elif kind == "shadow":
        others.append([x if x else y for x, y in zip(target, draw(vec))])
    return target, draw(st.permutations(others))


@given(sign_point_sets())
def test_is_extreme_matches_fraction_simplex(instance):
    target, others = instance
    X = Matrix([target])
    assert is_extreme(X, [Matrix([o]) for o in others]) == (
        not fraction_convex_combination_exists(target, others)
    )


def test_convex_combinations_stay_inside():
    rng = random.Random(8)
    for shape in all_skew_shapes(5):
        poly = PasmPolytope(shape)
        verts = poly.vertices()
        for _ in range(5):
            raw = [rng.randrange(0, 7) for _ in verts]
            if sum(raw) == 0:
                raw[0] = 1
            weights = [F(w, sum(raw)) for w in raw]
            assert poly.satisfies_inequalities(convex_combination(weights, verts))


def test_dilate_lattice_points_examples():
    poly = example_polytope()
    assert poly.dilate_lattice_points(0).count == 1
    assert poly.dilate_lattice_points(1).count == 10
    assert poly.dilate_lattice_points(2).count == 42


def test_dilate_matches_order_polynomial_sweep():
    for shape in all_skew_shapes(6, max_skew_size=5):
        poly = PasmPolytope(shape)
        P = build_poset(shape)
        for t in range(0, 4):
            assert poly.dilate_lattice_points(t).count == order_polynomial_value(P, t + 1)


def test_dilate_guardrails():
    poly = example_polytope()
    with pytest.raises(ValueError):
        poly.dilate_lattice_points(-1)
    with pytest.raises(ValueError):
        poly.dilate_lattice_points(5)
    big = PasmPolytope(SkewShape(Partition([5, 4]), Partition()))
    with pytest.raises(ValueError):
        big.dilate_lattice_points(2)
    for bad in (True, 1.0, Fraction(1), 0.5, "2"):
        with pytest.raises(TypeError, match="dilation factor must be an int"):
            poly.dilate_lattice_points(bad)
        with pytest.raises(TypeError, match="dilation factor must be an int"):
            poly.dilate_integer_points(bad)
        with pytest.raises(TypeError, match="dilation factor must be an int"):
            certify_integral_equivalence(poly, bad)


def test_ehrhart_interpolation_leading_coefficient():
    # Interpolating the dilate counts recovers a polynomial whose leading
    # coefficient times |cells|! is the linear extension count.
    from math import factorial

    for shape in all_skew_shapes(4):
        poly = PasmPolytope(shape)
        d = shape.size
        if d > 4:
            continue
        samples = [(t, poly.dilate_lattice_points(t).count) for t in range(0, d + 1)]
        ehr = interpolate_polynomial(samples)
        e = count_linear_extensions(build_poset(shape))
        lead = ehr.coeffs[-1] if ehr.coeffs else 0
        assert lead * factorial(d) == e


def test_staircase_product_formula():
    # Lattice point counts for staircases match the evaluated product
    # formula prod (2t+i+j-1)/(i+j-1) at t = 1, 2 for n <= 4.
    def product_formula(n, t):
        value = F(1)
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                value *= F(2 * t + i + j - 1, i + j - 1)
        assert value.denominator == 1
        return int(value)

    frozen = {(2, 1): 2, (2, 2): 3, (3, 1): 5, (3, 2): 14, (4, 1): 14, (4, 2): 84}
    for n in (2, 3, 4):
        poly = PasmPolytope(SkewShape(staircase(n), Partition(), n, n))
        for t in (1, 2):
            expected = product_formula(n, t)
            assert expected == frozen[(n, t)]
            assert poly.dilate_lattice_points(t).count == expected
