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
    count_linear_extensions,
    interpolate_polynomial,
    is_extreme,
    order_polynomial_value,
    vertex_matrix,
)
from pasmpoly.matrices import convex_combination

from families import all_skew_shapes, staircase
from golden import RATIONAL_POINT_422_31, VERTICES_422_31

F = Fraction

EXAMPLE = SkewShape(Partition([4, 2, 2]), Partition([3, 1]), 4, 5)


def example_polytope():
    return PasmPolytope(EXAMPLE)


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


def test_satisfies_inequalities_dimension_mismatch():
    with pytest.raises(ValueError):
        example_polytope().satisfies_inequalities(Matrix([[1]]))


def test_free_cells_are_skew_cells_plus_strip():
    for shape in all_skew_shapes(6):
        poly = PasmPolytope(shape)
        expected = set(shape.cells()) | set(shape.border_strip())
        assert set(poly.free_cells()) == expected


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
    assert set(poly.integer_points_brute()) == {
        Matrix([[1, 0], [0, 0]]),
        Matrix([[0, 1], [1, -1]]),
    }
    fixed = PasmPolytope(SkewShape(Partition([1]), Partition([1]), 2, 2))
    assert fixed.integer_points_brute() == [Matrix([[0, 1], [1, -1]])]
    point = PasmPolytope(SkewShape(Partition(), Partition(), 1, 1))
    assert point.integer_points_brute() == [Matrix([[1]])]


def test_integer_points_equal_vertices_sweep():
    # Computational verification of the inequality description.
    for shape in all_skew_shapes(6):
        poly = PasmPolytope(shape)
        assert set(poly.integer_points_brute()) == set(poly.vertices()), shape


def test_integer_points_guardrail():
    big = PasmPolytope(SkewShape(Partition([9]), Partition(), 2, 10))
    with pytest.raises(ValueError):
        big.integer_points_brute()


def test_guardrails_raise_resource_limit():
    assert issubclass(ResourceLimit, ValueError)
    brute = PasmPolytope(SkewShape(Partition([9]), Partition(), 2, 10))
    with pytest.raises(ResourceLimit, match="20 free cells, limit 16"):
        brute.integer_points_brute()
    big = PasmPolytope(SkewShape(Partition([5, 4]), Partition()))
    for scan in (big.dilate_lattice_points, big.dilate_integer_points):
        with pytest.raises(ResourceLimit, match=r"guardrail.*\|nu/lam\| = 9, t = 1"):
            scan(1)
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
        big.dilate_lattice_points(1)


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
