import random
import tracemalloc
from fractions import Fraction
from itertools import chain, combinations, product

import pytest

from pasmpoly import (
    Matrix,
    Partition,
    PasmPolytope,
    ResourceLimit,
    SkewShape,
    build_poset,
    certify_integral_equivalence,
    complete_to_asm,
    enumerate_between,
    enumerate_filters,
    face_labeling,
    from_order_point,
    is_asm,
    to_order_point,
)
from pasmpoly import equivalences
import pasmpoly.polytope
from pasmpoly.equivalences import _census, certificate_passes
from pasmpoly.matrices import _corner_rows

from families import all_skew_shapes, in_three_boxes, staircase
from golden import (
    COMPLETED_4,
    ORDER_POINT_422_31,
    PARTIAL_4,
    RATIONAL_POINT_422_31,
)
from points import (
    column_partial_sums,
    convex_combination,
    filter_indicator,
    listing_census,
    narrowed_bounds,
    origin_census,
    row_partial_sums,
    TablePolytope,
)

F = Fraction

EXAMPLE = SkewShape(Partition([4, 2, 2]), Partition([3, 1]), 4, 5)


def example_polytope():
    return PasmPolytope(EXAMPLE)


def random_points(poly, rng, count):
    verts = poly.vertices()
    for _ in range(count):
        raw = [rng.randrange(0, 9) for _ in verts]
        if sum(raw) == 0:
            raw[0] = 1
        weights = [F(w, sum(raw)) for w in raw]
        yield convex_combination(weights, verts)


def test_to_order_point_golden():
    assert to_order_point(RATIONAL_POINT_422_31, example_polytope()) == ORDER_POINT_422_31


def test_to_order_point_vertex_endpoints():
    poly = example_polytope()
    from pasmpoly import vertex_matrix

    g_lam = to_order_point(vertex_matrix(Partition([3, 1]), 4, 5), poly)
    assert all(v == 1 for v in g_lam.values())
    g_nu = to_order_point(vertex_matrix(Partition([4, 2, 2]), 4, 5), poly)
    assert all(v == 0 for v in g_nu.values())


def test_to_order_point_rejects_outsiders():
    with pytest.raises(ValueError):
        to_order_point(Matrix([[1] + [0] * 4] + [[0] * 5] * 3), example_polytope())


def test_from_order_point_golden():
    assert from_order_point(ORDER_POINT_422_31, example_polytope()) == RATIONAL_POINT_422_31


def test_from_order_point_filter_endpoints():
    poly = example_polytope()
    from pasmpoly import vertex_matrix

    cells = EXAMPLE.cells()
    assert from_order_point({c: 1 for c in cells}, poly) == vertex_matrix(Partition([3, 1]), 4, 5)
    assert from_order_point({c: 0 for c in cells}, poly) == vertex_matrix(Partition([4, 2, 2]), 4, 5)


def test_from_order_point_rejects_non_monotone():
    poly = example_polytope()
    bad = {(1, 4): 0, (2, 2): 1, (3, 1): 0, (3, 2): 0}
    with pytest.raises(ValueError):
        from_order_point(bad, poly)


def test_round_trip_both_ways():
    rng = random.Random(5)
    for shape in all_skew_shapes(5):
        poly = PasmPolytope(shape)
        for X in list(random_points(poly, rng, 3)) + poly.vertices():
            g = to_order_point(X, poly)
            assert from_order_point(g, poly) == X
            assert to_order_point(from_order_point(g, poly), poly) == g


def test_round_trip_from_independent_order_points():
    # Points generated directly inside the order polytope, not as images of
    # polytope points.
    rng = random.Random(11)
    for shape in all_skew_shapes(5):
        poly = PasmPolytope(shape)
        P = build_poset(shape)
        cells = list(P.elements)
        for _ in range(5):
            g = {c: F(rng.randrange(0, 101), 100) for c in cells}
            for a, b in P.covers:
                if g[cells[b]] < g[cells[a]]:
                    g[cells[b]] = g[cells[a]]
            X = from_order_point(g, poly)
            assert poly.satisfies_inequalities(X)
            assert to_order_point(X, poly) == g


def test_vertex_filter_bijection():
    # mu |-> {cells with j > mu_i} maps the partition interval bijectively
    # onto the filters of the cell poset.
    for shape in all_skew_shapes(6):
        poly = PasmPolytope(shape)
        P = build_poset(shape)
        images = set()
        for mu in enumerate_between(shape.lam, shape.nu):
            filt = frozenset(c for c in shape.cells() if c[1] > mu.part(c[0]))
            images.add(filt)
        assert images == set(enumerate_filters(P))
        # and the corner-sum map realizes exactly these indicators
        for V, mu in zip(poly.vertices(), enumerate_between(shape.lam, shape.nu)):
            g = to_order_point(V, poly)
            expected = filter_indicator(P, frozenset(c for c in shape.cells() if c[1] > mu.part(c[0])))
            assert g == expected


def test_complete_to_asm_golden_pair():
    assert complete_to_asm(PARTIAL_4) == COMPLETED_4
    assert is_asm(COMPLETED_4)


def test_complete_to_asm_small():
    assert complete_to_asm(Matrix([[1]])) == Matrix([[1]])
    assert complete_to_asm(Matrix([[1, 0], [0, 0]])) == Matrix([[1, 0], [0, 1]])
    with pytest.raises(ValueError):
        complete_to_asm(Matrix([[1, 0]]))


def test_complete_to_asm_is_translation():
    # The image minus the input is the same 0/1 matrix for every point.
    n = 4
    shift = None
    poly = PasmPolytope(SkewShape(staircase(n), Partition([1, 1]), n, n))
    for V in poly.vertices():
        image = complete_to_asm(V)
        delta = [
            [image.rows[i][j] - V.rows[i][j] for j in range(n)] for i in range(n)
        ]
        if shift is None:
            shift = delta
            assert all(x in (0, 1) for row in delta for x in row)
        else:
            assert delta == shift


def test_complete_to_asm_on_all_staircase_vertices():
    # For n <= 4 and every inner shape, images are alternating sign matrices
    # with the required zero pattern, and the map is injective on vertices.
    for n in (2, 3, 4):
        delta_n = staircase(n)
        for lam in enumerate_between(Partition(), delta_n):
            poly = PasmPolytope(SkewShape(delta_n, lam, n, n))
            images = [complete_to_asm(V) for V in poly.vertices()]
            assert len(set(images)) == len(images)
            for A in images:
                assert is_asm(A)
                for i in range(1, n + 1):
                    for j in range(1, n + 1):
                        if i + j >= n + 3:
                            assert A.entry(i, j) == 0
                        if j <= lam.part(i):
                            assert A.entry(i, j) == 0


def test_certificate_worked_example():
    report = certify_integral_equivalence(example_polytope(), 2)
    assert report["affine_unimodular"] is True
    assert report["vertex_bijection"] is True
    assert report["dilate_counts"] == [[1, 10, 10], [2, 42, 42]]
    assert report["counterexample"] is None
    assert certificate_passes(report)


def test_certificate_trivial_and_segment():
    lam = Partition([2, 1])
    assert certificate_passes(certify_integral_equivalence(PasmPolytope(SkewShape(lam, lam)), 2))
    segment = PasmPolytope(SkewShape(Partition([1]), Partition(), 2, 2))
    report = certify_integral_equivalence(segment, 3)
    assert report["dilate_counts"] == [[1, 2, 2], [2, 3, 3], [3, 4, 4]]
    assert certificate_passes(report)


def test_certificate_requires_a_dilate():
    poly = example_polytope()
    for t_max in (0, -1):
        with pytest.raises(ValueError):
            certify_integral_equivalence(poly, t_max)
    report = certify_integral_equivalence(poly, 1)
    assert certificate_passes(report)
    report["dilate_counts"] = []
    assert not certificate_passes(report)


def test_certificate_sweep():
    for shape in all_skew_shapes(5, max_skew_size=5):
        assert certificate_passes(certify_integral_equivalence(PasmPolytope(shape), 2)), shape


# The corner-sum image kernel of to_order_point before the row layout, kept
# as the reference for the images the scan and the row layout build.
def _corner_image(rows, cells):
    """The corner sums of the grid on the given cells, in their order."""
    C = _corner_rows(rows)
    return tuple(C[i - 1][j - 1] for (i, j) in cells)


def _scan_with(monkeypatch, corrupt):
    """Replace the points of each dilate by corrupt(points, t, poly) of their
    rows, listed in the order of dilate_integer_points.  The census reports
    what it would for the corrupted points, and dilate_integer_points lists
    them sorted, as the real one does."""
    real_points = PasmPolytope.dilate_integer_points

    def points(poly, t):
        return corrupt([X.rows for X in real_points(poly, t)], t, poly)

    monkeypatch.setattr(equivalences, "_census",
                        lambda poly, P, t: listing_census(poly, t, points(poly, t)))
    monkeypatch.setattr(PasmPolytope, "dilate_integer_points",
                        lambda self, t: [Matrix(rows) for rows in sorted(points(self, t))])


def _census_of(poly, t):
    return equivalences._census(poly, build_poset(poly.shape), t)


def test_scan_images_are_the_corner_sums_on_the_cells():
    # The census of the walk reports what the listed points' corner sums on
    # the cells plus 1 give, and the row-layout kernel of the certificate
    # gives the corner sums themselves.
    shapes = [(shape, t) for shape in all_skew_shapes(6) for t in range(4)]
    shapes.append((SkewShape(Partition([6] * 5), Partition()), 1))
    for shape, t in shapes:
        poly, cells = PasmPolytope(shape), shape.cells()
        layout = poly._row_layout()
        points = [X.rows for X in poly.dilate_integer_points(t)]
        assert _census_of(poly, t) == listing_census(poly, t, points) == (len(points), True, True), (shape, t)
        for rows in points:
            expected = _corner_image(rows, cells)
            assert equivalences._corner_image(rows, layout) == expected


def test_census_matches_the_listing_in_three_boxes():
    # (count, valid, distinct) of the census equal those of the listed
    # points, shape by shape, in the minimal box and in two larger ones.
    for shape in chain.from_iterable(map(in_three_boxes, all_skew_shapes(6))):
        poly = PasmPolytope(shape)
        for t in range(4):
            points = [X.rows for X in poly.dilate_integer_points(t)]
            assert _census_of(poly, t) == listing_census(poly, t, points), (shape, t)


# The (lo, hi) bound pairs the mutant sweeps put on a grid edge.
_BOUND_PAIRS = [(-1, 1), (-1, 0), (0, 0), (1, 1), (0, 1), (1, 2), (0, 2)]


def _single_edge_mutants(shape):
    """Each (edge, lo, hi) of shape's polytope, an H or V edge and a bound
    pair, with the bound lists that set the edge to it, where they differ
    from the paper's table."""
    poly = PasmPolytope(shape)
    table = poly._bounds()
    for edge in [(kind, i, j) for kind in "HV" for i in range(1, shape.m + 1) for j in range(1, shape.n + 1)]:
        for lo, hi in _BOUND_PAIRS:
            mutant = narrowed_bounds(poly, edge, lo, hi)
            if mutant != table:
                yield (edge, lo, hi), mutant


def test_census_matches_the_origin_census_on_single_edge_mutants():
    # Every H and V edge of every shape of up to 5 cells, set to each bound
    # pair: the count walk, which checks each cover at the cell that ends
    # it, reports what the census of origin lists reports.
    mutants = 0
    for shape in all_skew_shapes(5):
        P = build_poset(shape)
        for (edge, lo, hi), mutant in _single_edge_mutants(shape):
            mutants += 1
            mutated = TablePolytope(shape, mutant)
            for t in (1, 2):
                assert _census(mutated, P, t) == origin_census(mutated, P, t), (shape, edge, lo, hi, t)
    assert mutants == 15192


def test_the_census_probes_only_where_its_table_lets_a_cover_step_go_negative(monkeypatch):
    # The census hands the scan the table it read and a probe only where a
    # dilated lower bound on a cover's step is negative.  The paper's lower
    # bounds are 0 or 1, so no probe is handed on any shape; H(3, 2) in
    # [-1, 1] on (4,2,2)/(3,1) gets one at t >= 1, and none at t = 0.
    real, probes = equivalences._scan, []

    def recorded(table, n, t, seed, close, probe=None):
        probes.append(probe)
        return real(table, n, t, seed, close, probe)

    monkeypatch.setattr(equivalences, "_scan", recorded)
    for shape in chain.from_iterable(map(in_three_boxes, all_skew_shapes(6))):
        for t in range(3):
            _census_of(PasmPolytope(shape), t)
    assert probes and all(probe is None for probe in probes)
    probes.clear()
    widened = TablePolytope(EXAMPLE, narrowed_bounds(example_polytope(), ("H", 3, 2), -1, 1))
    assert [_census_of(widened, t)[1] for t in range(3)] == [True, False, False]
    assert probes[0] is None and all(callable(probe) for probe in probes[1:])


def test_census_matches_the_origin_census_with_both_steps_of_a_cell_set():
    # A cell whose H and V bounds both move can allow a negative step that
    # no key takes: on (1,1)/() with H(2, 1) in [1, 2] and V(2, 1) in
    # [-1, 1], the census must probe for steps of -1 or less, not 0.
    for shape in all_skew_shapes(2):
        poly, P = PasmPolytope(shape), build_poset(shape)
        for k in range(shape.m * shape.n):
            for h, v in product(_BOUND_PAIRS, _BOUND_PAIRS):
                lists = [list(xs) for xs in poly._bounds()]
                (lists[0][k], lists[1][k]), (lists[2][k], lists[3][k]) = h, v
                mutated = TablePolytope(shape, lists)
                for t in (1, 2):
                    assert _census(mutated, P, t) == origin_census(mutated, P, t), (shape, k, h, v, t)


def test_census_past_the_guardrail():
    # L(t) of 9^8 at t = 2 and of 6^5 at t = 4, as pinned by the count
    # walk's test and by the benchmark.
    for nu, t, count in (([9] * 8, 2, 118195220), ([6] * 5, 4, 133613766)):
        shape = SkewShape(Partition(nu), Partition())
        assert _census(PasmPolytope(shape), build_poset(shape), t) == (count, True, True)


@pytest.mark.parametrize("edge", [("H", 3, 2), ("V", 3, 2)], ids=["H(3,2)", "V(3,2)"])
def test_a_bound_below_zero_at_a_cover_cell_fails_the_census(edge):
    # On (4,2,2)/(3,1), both bounds are [0, 1].  H(3, 2) >= -1 lets the
    # corner sum of the cell (3, 2) fall below that of (2, 2) above it, and
    # V(3, 2) >= -1 below that of (3, 1) west of it: the census names a
    # point whose image breaks the cover.
    kind = edge[0]
    widened = TablePolytope(EXAMPLE, narrowed_bounds(example_polytope(), edge, -1, 1))
    report = certify_integral_equivalence(widened, 2)
    assert report["affine_unimodular"] is True
    assert report["vertex_bijection"] is False
    assert report["dilate_counts"] == []
    assert report["counterexample"]["dilate"] == 1
    C = _corner_rows(report["counterexample"]["point"]["entries"])
    a, b = ((1, 1), (2, 1)) if kind == "H" else ((2, 0), (2, 1))
    assert C[a[0]][a[1]] > C[b[0]][b[1]]
    assert not certificate_passes(report)


def test_a_corner_sum_above_t_fails_the_census():
    # V(3, 3) >= -1 lets C(3, 2) = C(3, 3) + 1 = 2 on the cell (3, 2), with
    # no cover broken, and H(4, 2) >= -1 lets that point close: the census
    # names a point whose image leaves [0, t].
    poly = example_polytope()
    lists = [list(xs) for xs in poly._bounds()]
    lists[0][3 * poly.n + 1] = -1   # lo_H of H(4, 2)
    lists[2][2 * poly.n + 2] = -1   # lo_V of V(3, 3)
    report = certify_integral_equivalence(TablePolytope(EXAMPLE, tuple(lists)), 1)
    assert report["dilate_counts"] == []
    assert report["counterexample"]["dilate"] == 1
    assert _corner_rows(report["counterexample"]["point"]["entries"])[2][1] == 2
    assert not certificate_passes(report)


def test_a_widened_pin_on_a_non_cell_corner_sum_fails_the_census():
    # H(1, 5) = C(1, 5) is pinned to t, east of the only cell (1, 4) of row
    # 1.  Widened to [0, t], two keys of row 1 share their slice on the
    # cells, so a slice no longer names its point; the count alone still
    # matches at t = 1.
    widened = TablePolytope(EXAMPLE, narrowed_bounds(example_polytope(), ("H", 1, 5), 0, 1))
    assert _census_of(widened, 1) == (10, True, False)
    report = certify_integral_equivalence(widened, 2)
    assert report["vertex_bijection"] is False
    assert report["dilate_counts"] == [[1, 10, 10]]
    assert report["counterexample"] == {"dilate": 1}
    assert not certificate_passes(report)


def test_a_cell_walk_that_drops_one_successor_fails_the_census(monkeypatch):
    real, dropped = pasmpoly.polytope._cell, []

    def drop_one(keys, *bounds):
        reached = real(keys, *bounds)
        if not dropped and len(reached) > 1:
            dropped.append(reached.popitem())
        return reached

    monkeypatch.setattr(pasmpoly.polytope, "_cell", drop_one)
    report = certify_integral_equivalence(example_polytope(), 2)
    assert dropped
    assert report["vertex_bijection"] is False
    [[t, count, total]] = report["dilate_counts"]
    assert (t, total) == (1, 10) and count < total
    assert report["counterexample"] == {"dilate": 1}
    assert not certificate_passes(report)


def test_the_round_trip_reads_the_sums_above_the_row(monkeypatch):
    # B shares its rows from 3 on with the vertex A, under the column sums
    # of another vertex X, and breaks V(3, 2).  Giving the edge (2, 2, 0) of
    # the row-pair graph A's row there checks B's rows along X's path; a
    # step that read the row alone would pass it as it passes A's.  The
    # failed edge names X, the least vertex through it.
    poly = example_polytope()
    verts = poly.vertices()
    A, X = verts[0], verts[2]
    B = Matrix(X.rows[:2] + A.rows[2:])
    assert [sum(col) for col in zip(*A.rows[:2])] != [sum(col) for col in zip(*X.rows[:2])]
    assert not poly.satisfies_inequalities(B)
    real = equivalences._profile_row
    assert (real(2, 0, 5), real(1, 0, 5)) == (X.rows[2], A.rows[2])
    monkeypatch.setattr(equivalences, "_profile_row",
                        lambda a, b, n: real(1, 0, n) if (a, b) == (2, 0) else real(a, b, n))
    report = certify_integral_equivalence(poly, 1)
    assert report["affine_unimodular"] is False
    assert report["counterexample"] == {"vertex": X.to_json_dict()}
    assert not certificate_passes(report)


def test_certificate_catches_a_dropped_point(monkeypatch):
    _scan_with(monkeypatch, lambda points, t, poly: points[1:])
    report = certify_integral_equivalence(example_polytope(), 2)
    assert report["dilate_counts"] == [[1, 9, 10]]
    assert report["vertex_bijection"] is False
    assert report["counterexample"] == {"dilate": 1}
    assert not certificate_passes(report)


def test_certificate_catches_a_repeated_point(monkeypatch):
    _scan_with(monkeypatch, lambda points, t, poly: points + points[-1:])
    report = certify_integral_equivalence(example_polytope(), 2)
    # The set of images is still right; only the count shows the repeat.
    assert report["dilate_counts"] == [[1, 11, 10]]
    assert report["vertex_bijection"] is False
    assert report["counterexample"] == {"dilate": 1}
    assert not certificate_passes(report)


def test_certificate_catches_a_point_repeated_under_another_state(monkeypatch):
    # The walk groups the points by the state after row m - 1; a copy of the
    # first point filed in the next group is still a repeat.
    def repeat_elsewhere(points, t, poly):
        state = [tuple(map(sum, zip(*rows[:-1]))) for rows in points]
        k = next(k for k, s in enumerate(state) if s != state[0])
        return points[:k + 1] + points[:1] + points[k + 1:]

    _scan_with(monkeypatch, repeat_elsewhere)
    report = certify_integral_equivalence(example_polytope(), 2)
    assert report["dilate_counts"] == [[1, 11, 10]]
    assert report["vertex_bijection"] is False
    assert report["counterexample"] == {"dilate": 1}
    assert not certificate_passes(report)


def test_a_passing_certificate_never_lists_the_rows(monkeypatch):
    # The points are listed only to name a counterexample; a passing
    # certificate compares the images alone.
    def refuse(self, t):
        raise AssertionError("the points were listed")

    monkeypatch.setattr(PasmPolytope, "dilate_integer_points", refuse)
    for shape in all_skew_shapes(4):
        assert certificate_passes(certify_integral_equivalence(PasmPolytope(shape), 3)), shape
    assert certificate_passes(certify_integral_equivalence(example_polytope(), 4))


def test_certificate_catches_a_dropped_or_repeated_vertex(monkeypatch):
    # The paths of the row-pair graph must be as many as the maps into
    # {1, 2}.  One map more than the 10 vertices stands for a dropped
    # vertex, one fewer for a repeated one; the round trip still passes.
    real = equivalences.enumerate_order_preserving_maps
    for corrupt in (lambda maps: maps + maps[:1], lambda maps: maps[1:]):
        monkeypatch.setattr(equivalences, "enumerate_order_preserving_maps",
                            lambda P, t, corrupt=corrupt: corrupt(list(real(P, t))) if t == 2 else real(P, t))
        report = certify_integral_equivalence(example_polytope(), 1)
        assert report["affine_unimodular"] is True
        assert report["vertex_bijection"] is False
        assert report["dilate_counts"] == []
        assert report["counterexample"] == {"vertices": 10, "maps": len(corrupt(list(range(10))))}
        assert not certificate_passes(report)


def test_certificate_catches_a_corner_sum_out_of_range(monkeypatch):
    def inject(points, t, poly):
        # A first row of t + 1s puts every corner sum of row 1 above t.
        return [((t + 1,) * poly.n,) + points[0][1:]] + points[1:]

    _scan_with(monkeypatch, inject)
    report = certify_integral_equivalence(example_polytope(), 2)
    assert report["vertex_bijection"] is False
    assert report["dilate_counts"] == []
    assert report["counterexample"]["dilate"] == 1
    assert report["counterexample"]["point"]["entries"][0] == [2] * 5
    assert not certificate_passes(report)


def test_certificate_names_the_first_point_off_the_order_maps(monkeypatch):
    # The image [0, 1, 0, 0] is within [0, 1] but breaks the cover
    # (2, 2) <= (3, 2): the point itself is the counterexample.
    bad = ((0, 0, 0, 0, 0), (0, 1, -1, 0, 0), (0, -1, 1, 0, 0), (0, 0, 0, 0, 0))
    _scan_with(monkeypatch, lambda points, t, poly: [bad] + points[1:] if t == 1 else points)
    report = certify_integral_equivalence(example_polytope(), 2)
    assert report["vertex_bijection"] is False
    assert report["dilate_counts"] == []
    assert report["counterexample"] == {"dilate": 1, "point": Matrix(bad).to_json_dict()}
    assert not certificate_passes(report)


def test_an_image_off_the_maps_with_no_such_point_names_the_dilate(monkeypatch):
    # The census reports an image off the maps, but every listed point is
    # right: no point qualifies, so the dilate alone is the counterexample.
    real = equivalences._census

    def one_off(poly, P, t):
        count, _, distinct = real(poly, P, t)
        return count, False, distinct

    monkeypatch.setattr(equivalences, "_census", one_off)
    report = certify_integral_equivalence(example_polytope(), 2)
    assert report["vertex_bijection"] is False
    assert report["dilate_counts"] == []
    assert report["counterexample"] == {"dilate": 1}
    assert not certificate_passes(report)


def test_a_break_on_a_key_that_no_point_goes_through_names_the_dilate():
    # On (1,1)/() in its 3 x 2 box, H(1, 2) in [1, 2] and V(2, 1) in [0, 2]
    # let the walk reach a key with C(2, 1) = 2 > t at the end of row 2, and
    # two keys of row 1 with one slice.  No point goes through them, so the
    # census is invalid, every listed point's image is a map into {1, 2},
    # and the dilate alone is the counterexample.
    shape = SkewShape(Partition([1, 1]), Partition(), 3, 2)
    lists = [list(xs) for xs in PasmPolytope(shape)._bounds()]
    lists[1][1] = 2   # hi_H of H(1, 2), whose lo_H is 1
    lists[3][2] = 2   # hi_V of V(2, 1), whose lo_V is 0
    mutated = TablePolytope(shape, tuple(lists))
    assert _census(mutated, build_poset(shape), 1) == (3, False, False)
    points = [X.rows for X in mutated.dilate_integer_points(1)]
    assert listing_census(mutated, 1, points) == (3, True, True)
    report = certify_integral_equivalence(mutated, 1)
    assert report["vertex_bijection"] is False
    assert report["dilate_counts"] == []
    assert report["counterexample"] == {"dilate": 1}
    assert not certificate_passes(report)


def test_one_poset_oracle_serves_both_t_one_checks(monkeypatch):
    real = equivalences.enumerate_order_preserving_maps
    calls = []

    def counted(P, t):
        calls.append(t)
        return real(P, t)

    monkeypatch.setattr(equivalences, "enumerate_order_preserving_maps", counted)
    for t_max in (1, 2, 3):
        calls.clear()
        assert certificate_passes(certify_integral_equivalence(example_polytope(), t_max))
        assert calls == list(range(2, t_max + 2))

    # Dropping one map into {1, 2} fails the vertex bijection, before any
    # dilate is scanned.
    def drop_one(P, t):
        maps = list(real(P, t))
        return maps[1:] if t == 2 else maps

    monkeypatch.setattr(equivalences, "enumerate_order_preserving_maps", drop_one)
    report = certify_integral_equivalence(example_polytope(), 2)
    assert report["vertex_bijection"] is False
    assert report["dilate_counts"] == []
    assert not certificate_passes(report)


def test_certificate_keeps_the_dilate_guardrail():
    big = PasmPolytope(SkewShape(Partition([5, 4]), Partition()))
    with pytest.raises(ResourceLimit, match=r"\|nu/lam\| = 9, t = 2"):
        certify_integral_equivalence(big, 2)
    with pytest.raises(ResourceLimit, match="t = 5"):
        certify_integral_equivalence(example_polytope(), 5)


def test_certificate_at_t_one_runs_beyond_eight_cells():
    for side, rows in ((6, 5), (7, 6)):
        poly = PasmPolytope(SkewShape(Partition([side] * rows), Partition()))
        report = certify_integral_equivalence(poly, 1)
        assert certificate_passes(report)
        assert report["dilate_counts"] == [[1, len(poly.vertices()), len(poly.vertices())]]


def test_certificate_at_t_one_lists_no_vertex():
    # 10^9 has 92 378 vertices and as many maps into {1, 2}.  The round
    # trip walks the 550 edges of the row-pair graph, and the maps are
    # counted, not held, so the traced peak stays under 2 MB; listing the
    # vertices as matrices, and a set of them, peaks at 22.6 MB, and a set
    # of the maps and of the vertex images breaks the cap too (on 9^8,
    # with 24 310 of each, it peaks at about 34 MB).
    poly = PasmPolytope(SkewShape(Partition([10] * 9), Partition()))
    tracemalloc.start()
    try:
        report = certify_integral_equivalence(poly, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report["dilate_counts"] == [[1, 92378, 92378]]
    assert certificate_passes(report)
    assert peak < 2 * 2**20, peak


def test_the_row_pair_graph_has_one_path_per_vertex():
    # At t = 1 the paths, the census points and the maps are all L(1), the
    # number of vertices() listed.
    for shape in chain.from_iterable(map(in_three_boxes, all_skew_shapes(7))):
        poly = PasmPolytope(shape)
        L = len(poly.vertices())
        assert certify_integral_equivalence(poly, 1)["dilate_counts"] == [[1, L, L]], shape


def test_certificate_fails_on_a_vertex_outside_the_h_description():
    # On (4,2,2)/(3,1) the entry (2, 5) is -H(2, 4), so pinning H(2, 4) to 0
    # cuts off the vertices with a nonzero entry there.
    narrowed = TablePolytope(EXAMPLE, narrowed_bounds(example_polytope(), ("H", 2, 4), 0, 0))
    report = certify_integral_equivalence(narrowed, 2)
    assert report["affine_unimodular"] is False
    assert report["dilate_counts"] == []
    V = Matrix.from_json_dict(report["counterexample"]["vertex"])
    assert V in narrowed.vertices()
    assert V.entry(2, 5) != 0
    assert not certificate_passes(report)


def test_certificate_fails_when_any_two_valued_bound_is_narrowed():
    # Every {0, 1} edge of the face labeling takes both values on the
    # vertices, so pinning it, or two of them, to either value cuts off a
    # vertex.  The counterexample is the first vertex cut off in walk
    # order, whichever rows of the row-pair graph hold the failed edges.
    poly = example_polytope()
    two_valued = [edge for edge, labels in face_labeling(poly).items() if len(labels) > 1]
    assert len(two_valued) == 14
    pins = list(product(two_valued, (0, 1)))
    for chosen in chain(((pin,) for pin in pins), combinations(pins, 2)):
        mutated = poly
        for edge, value in chosen:
            mutated = TablePolytope(EXAMPLE, narrowed_bounds(mutated, edge, value, value))
        report = certify_integral_equivalence(mutated, 2)
        assert report["affine_unimodular"] is False, chosen
        first = next(V for V in poly.vertices() if not mutated.satisfies_inequalities(V))
        assert report["counterexample"] == {"vertex": first.to_json_dict()}, chosen
        assert not certificate_passes(report)


def test_round_trip_reads_the_list_indexed_bound_table(monkeypatch):
    # The vertex round trip runs on int rows: its membership test reads the
    # flat bound lists of _bounds() itself, not satisfies_inequalities.
    # Pinning one two-valued partial sum to 1 cuts off a vertex where it
    # is 0.
    def no_matrix_membership(self, X):
        raise AssertionError("the round trip built a Matrix to test membership")

    poly = example_polytope()
    edge = next(e for e, labels in face_labeling(poly).items() if len(labels) > 1)
    narrowed = TablePolytope(EXAMPLE, narrowed_bounds(poly, edge, 1, 1))
    monkeypatch.setattr(PasmPolytope, "satisfies_inequalities", no_matrix_membership)
    report = certify_integral_equivalence(narrowed, 1)
    assert report["affine_unimodular"] is False
    assert not certificate_passes(report)
    V = Matrix.from_json_dict(report["counterexample"]["vertex"])
    kind, i, j = edge
    sums = row_partial_sums(V, i) if kind == "H" else column_partial_sums(V, j)
    assert sums[(j if kind == "H" else i) - 1] == 0


def test_certificate_catches_a_wrong_inverse(monkeypatch):
    # The inverse of each row step is off by one in its last entry.
    real = equivalences._inverse_corner_row

    def perturbed(row, above):
        out = list(real(row, above))
        out[-1] += 1
        return tuple(out)

    monkeypatch.setattr(equivalences, "_inverse_corner_row", perturbed)
    poly = example_polytope()
    report = certify_integral_equivalence(poly, 2)
    assert report["affine_unimodular"] is False
    assert report["counterexample"] == {"vertex": poly.vertices()[0].to_json_dict()}
    assert not certificate_passes(report)


def test_certificate_guardrail_comes_before_vertex_work(monkeypatch):
    def refuse(self, *args):
        raise AssertionError("vertices or dilate points enumerated before the guardrail")

    monkeypatch.setattr(PasmPolytope, "vertices", refuse)
    monkeypatch.setattr(equivalences, "_census", refuse)
    big = PasmPolytope(SkewShape(Partition([5, 4]), Partition()))
    with pytest.raises(ResourceLimit):
        certify_integral_equivalence(big, 2)


def test_certificate_builds_the_cell_poset_once(monkeypatch):
    calls = []

    def counted(shape):
        calls.append(shape)
        return build_poset(shape)

    monkeypatch.setattr(equivalences, "build_poset", counted)
    report = certify_integral_equivalence(example_polytope(), 2)
    assert certificate_passes(report)
    assert len(calls) == 1
