import random
from fractions import Fraction

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
    from_order_point,
    is_asm,
    to_order_point,
)
from pasmpoly import equivalences
from pasmpoly.equivalences import certificate_passes
from pasmpoly.matrices import column_partial_sums, row_partial_sums

from families import all_skew_shapes, staircase
from golden import (
    COMPLETED_4,
    ORDER_POINT_422_31,
    PARTIAL_4,
    RATIONAL_POINT_422_31,
)
from points import convex_combination, filter_indicator

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


def _scan_with(monkeypatch, corrupt):
    """Replace the private row scan by corrupt(points, t, poly) of its output."""
    real = PasmPolytope._scan_rows

    def scan(self, t):
        yield from corrupt(list(real(self, t)), t, self)

    monkeypatch.setattr(PasmPolytope, "_scan_rows", scan)


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


def test_certificate_catches_a_dropped_or_repeated_vertex(monkeypatch):
    # The vertex images must be the filter indicators, each exactly once.
    real = PasmPolytope._vertex_rows
    for corrupt in (lambda rows: rows[1:], lambda rows: rows + rows[:1]):
        monkeypatch.setattr(PasmPolytope, "_vertex_rows",
                            lambda self, corrupt=corrupt: iter(corrupt(list(real(self)))))
        report = certify_integral_equivalence(example_polytope(), 1)
        assert report["affine_unimodular"] is True
        assert report["vertex_bijection"] is False
        assert report["dilate_counts"] == []
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


def test_certificate_fails_on_a_vertex_outside_the_h_description(monkeypatch):
    # On (4,2,2)/(3,1) the entry (2, 5) is -H(2, 4), so pinning H(2, 4) to 0
    # cuts off the vertices with a nonzero entry there.
    real = PasmPolytope._bounds
    monkeypatch.setattr(PasmPolytope, "_bounds",
                        lambda self: {**real(self), ("H", 2, 4): (0, 0)})
    poly = example_polytope()
    report = certify_integral_equivalence(poly, 2)
    assert report["affine_unimodular"] is False
    assert report["dilate_counts"] == []
    V = Matrix.from_json_dict(report["counterexample"]["vertex"])
    assert V in poly.vertices()
    assert V.entry(2, 5) != 0
    assert not certificate_passes(report)


def test_certificate_fails_when_any_two_valued_bound_is_narrowed(monkeypatch):
    # Every {0, 1} edge of the face labeling takes both values on the
    # vertices, so pinning it to either value cuts off a vertex.
    real = PasmPolytope._bounds
    poly = example_polytope()
    two_valued = [edge for edge, (lo, hi) in real(poly).items() if lo < hi]
    assert len(two_valued) == 14
    for edge in two_valued:
        for value in (0, 1):
            narrowed = {**real(poly), edge: (value, value)}
            monkeypatch.setattr(PasmPolytope, "_bounds", lambda self, table=narrowed: table)
            report = certify_integral_equivalence(poly, 2)
            assert report["affine_unimodular"] is False, (edge, value)
            assert not certificate_passes(report)


def test_round_trip_reads_the_list_indexed_bound_table(monkeypatch):
    # The vertex round trip runs on int rows: its membership test reads the
    # list-indexed copy of _bounds(), not satisfies_inequalities.  Pinning
    # one two-valued partial sum to 1 cuts off a vertex where it is 0.
    def no_matrix_membership(self, X):
        raise AssertionError("the round trip built a Matrix to test membership")

    real = PasmPolytope._bounds
    edge = next(e for e, (lo, hi) in real(example_polytope()).items() if lo < hi)
    monkeypatch.setattr(PasmPolytope, "_bounds", lambda self: {**real(self), edge: (1, 1)})
    monkeypatch.setattr(PasmPolytope, "satisfies_inequalities", no_matrix_membership)
    report = certify_integral_equivalence(example_polytope(), 1)
    assert report["affine_unimodular"] is False
    assert not certificate_passes(report)
    V = Matrix.from_json_dict(report["counterexample"]["vertex"])
    kind, i, j = edge
    sums = row_partial_sums(V, i) if kind == "H" else column_partial_sums(V, j)
    assert sums[(j if kind == "H" else i) - 1] == 0


def test_certificate_catches_a_wrong_inverse(monkeypatch):
    real = equivalences._from_order_values

    def perturbed(vals, poly):
        rows = [list(r) for r in real(vals, poly)]
        rows[-1][-1] += 1
        return tuple(map(tuple, rows))

    monkeypatch.setattr(equivalences, "_from_order_values", perturbed)
    poly = example_polytope()
    report = certify_integral_equivalence(poly, 2)
    assert report["affine_unimodular"] is False
    assert report["counterexample"] == {"vertex": poly.vertices()[0].to_json_dict()}
    assert not certificate_passes(report)


def test_certificate_guardrail_comes_before_vertex_work(monkeypatch):
    def refuse(self):
        raise AssertionError("vertices enumerated before the guardrail")

    monkeypatch.setattr(PasmPolytope, "vertices", refuse)
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
