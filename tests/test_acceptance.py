"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -v tests/test_acceptance.py`` (add ``-s`` to see the
per-criterion lines inline).  Every tolerance is exact equality; timing
budgets are asserted where the criterion states one.
"""

import random
import time
from fractions import Fraction

from pasmpoly import (
    Partition,
    PasmPolytope,
    SkewShape,
    build_flow_graph,
    build_poset,
    complete_to_asm,
    count_integer_flows,
    count_linear_extensions,
    enumerate_between,
    enumerate_filters,
    face_labeling,
    is_asm,
    is_flow,
    naruse_count,
    order_point_to_flow,
    order_polynomial_value,
    region_count,
    vertex_matrix,
)
from pasmpoly.equivalences import certificate_passes, certify_integral_equivalence

from families import all_skew_shapes, staircase
from golden import (
    COMPLETED_4,
    ORDER_POINT_422_31,
    PARTIAL_4,
    PROFILE_5331,
    RATIONAL_POINT_422_31,
    VERTICES_422_31,
)
from points import filter_indicator

F = Fraction

EXAMPLE = SkewShape(Partition([4, 2, 2]), Partition([3, 1]), 4, 5)


def report(number: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number:02d}: {status} - {detail}")
    assert passed, f"criterion {number}: {detail}"


def test_criterion_01_golden_profile_matrix():
    mu = Partition([5, 3, 3, 1])
    runs = []
    for _ in range(200):
        t0 = time.perf_counter()
        M = vertex_matrix(mu, 5, 7)
        runs.append(time.perf_counter() - t0)
    best = min(runs)
    ok = M == PROFILE_5331 and best < 1e-3
    report(1, ok, f"profile matrix of (5,3,3,1) reproduced entry-for-entry in {best*1e6:.0f}us")


def test_criterion_02_vertex_census():
    t0 = time.perf_counter()
    poly = PasmPolytope(EXAMPLE)
    verts = set(poly.vertices())
    scanned = set(poly.dilate_integer_points(1))
    elapsed = time.perf_counter() - t0
    ok = (
        verts == set(VERTICES_422_31.values())
        and scanned == verts
        and len(verts) == 10
        and elapsed < 10.0
    )
    report(2, ok, f"10 vertices match the golden set and the integer scan in {elapsed:.2f}s")


def test_criterion_03_dimension_three_ways():
    t0 = time.perf_counter()
    checked = 0
    ok = True
    for shape in all_skew_shapes(8):
        poly = PasmPolytope(shape)
        expected = shape.size
        if poly.dimension() != expected or region_count(face_labeling(poly)) != expected:
            ok = False
            break
        checked += 1
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    report(3, ok, f"rank = regions = |nu|-|lambda| on {checked} shapes in {elapsed:.1f}s")


def test_criterion_04_volume_equivalence():
    t0 = time.perf_counter()
    checked = 0
    ok = True
    for shape in all_skew_shapes(9):
        e = count_linear_extensions(build_poset(shape))
        if naruse_count(shape.nu, shape.lam) != e:
            ok = False
            break
        checked += 1
    spot = naruse_count(Partition([4, 2, 2]), Partition([3, 1]))
    elapsed = time.perf_counter() - t0
    ok = ok and spot == 8 and elapsed < 120.0
    report(4, ok, f"hook formula = extension count on {checked} shapes (spot value 8) in {elapsed:.1f}s")


def test_criterion_05_ehrhart_equivalence():
    t0 = time.perf_counter()
    checked = 0
    ok = True
    for shape in all_skew_shapes(6, max_skew_size=5):
        poly = PasmPolytope(shape)
        P = build_poset(shape)
        for t in range(0, 4):
            if poly.dilate_lattice_points(t).count != order_polynomial_value(P, t + 1):
                ok = False
                break
        if not ok:
            break
        checked += 1
    example = PasmPolytope(EXAMPLE)
    spots = (example.dilate_lattice_points(1).count, example.dilate_lattice_points(2).count)
    elapsed = time.perf_counter() - t0
    ok = ok and spots == (10, 42) and elapsed < 120.0
    report(5, ok, f"dilate counts = order polynomial on {checked} shapes, spots {spots}, in {elapsed:.1f}s")


def test_criterion_06_staircase_catalan():
    counts = {}
    for n in (2, 3, 4):
        poly = PasmPolytope(SkewShape(staircase(n), Partition(), n, n))
        counts[n] = len(poly.vertices())

    def product_formula(n, t):
        value = F(1)
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                value *= F(2 * t + i + j - 1, i + j - 1)
        assert value.denominator == 1
        return int(value)

    p3 = PasmPolytope(SkewShape(staircase(3), Partition(), 3, 3))
    ehr = (p3.dilate_lattice_points(1).count, p3.dilate_lattice_points(2).count)
    formula = (product_formula(3, 1), product_formula(3, 2))
    ok = counts == {2: 2, 3: 5, 4: 14} and ehr == formula == (5, 14)
    report(6, ok, f"vertex counts {counts} are Catalan; staircase dilate counts {ehr} match the product formula")


def test_criterion_07_translation_correspondence():
    ok = complete_to_asm(PARTIAL_4) == COMPLETED_4
    checked = 0
    for n in (2, 3, 4):
        delta_n = staircase(n)
        for lam in enumerate_between(Partition(), delta_n):
            poly = PasmPolytope(SkewShape(delta_n, lam, n, n))
            images = [complete_to_asm(V) for V in poly.vertices()]
            if len(set(images)) != len(images):
                ok = False
            for A in images:
                if not is_asm(A):
                    ok = False
                for i in range(1, n + 1):
                    for j in range(1, n + 1):
                        if (i + j >= n + 3 or j <= lam.part(i)) and A.entry(i, j) != 0:
                            ok = False
            checked += len(images)
    report(7, ok, f"antidiagonal completion sends {checked} staircase vertices to alternating sign matrices, injectively")


def test_criterion_08_integral_equivalence_certificates():
    checked = 0
    ok = True
    for shape in all_skew_shapes(6, max_skew_size=5):
        if not certificate_passes(certify_integral_equivalence(PasmPolytope(shape), 2)):
            ok = False
            break
        checked += 1
    report(8, ok, f"order-polytope equivalence certified (t <= 2) on {checked} shapes")


def test_criterion_09_flow_certificates():
    rng = random.Random(20260810)
    checked = 0
    ok = True
    for shape in all_skew_shapes(6, max_skew_size=5):
        P = build_poset(shape)
        G = build_flow_graph(P)
        cells = list(P.elements)
        for filt in enumerate_filters(P):
            if not is_flow(order_point_to_flow(filter_indicator(P, filt), G), G):
                ok = False
        for _ in range(200):
            f = {c: F(rng.randrange(0, 101), 100) for c in cells}
            for a, b in P.covers:
                if f[cells[b]] < f[cells[a]]:
                    f[cells[b]] = f[cells[a]]
            if not is_flow(order_point_to_flow(f, G), G):
                ok = False
        for t in (1, 2):
            if count_integer_flows(G, t) != order_polynomial_value(P, t + 1):
                ok = False
        if not ok:
            break
        checked += 1
    report(9, ok, f"flow images valid and dilate counts agree on {checked} shapes")


def test_criterion_10_corner_sum_golden():
    poly = PasmPolytope(EXAMPLE)
    from pasmpoly import corner_sums, to_order_point

    C = corner_sums(RATIONAL_POINT_422_31)
    g = to_order_point(RATIONAL_POINT_422_31, poly)
    expected = {(1, 4): F(7, 10), (2, 2): F(4, 10), (3, 1): F(2, 10), (3, 2): F(7, 10)}
    ok = (
        g == expected == ORDER_POINT_422_31
        and C.entry(4, 5) == 1
        and C.entry(1, 4) == F(7, 10)
    )
    report(10, ok, "corner-sum pipeline reproduces the rational point (7/10, 2/5, 1/5, 7/10) exactly")
