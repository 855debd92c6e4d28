import random
from fractions import Fraction
from itertools import combinations
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
    count_linear_extensions,
    interpolate_polynomial,
    is_extreme,
    order_polynomial_value,
    vertex_matrix,
)
import pasmpoly.polytope
from pasmpoly.polytope import DILATE_SIZE_LIMIT

from families import all_skew_shapes, staircase
from golden import RATIONAL_POINT_422_31, VERTICES_422_31
from points import convex_combination
from test_linalg import fraction_convex_combination_exists

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


def _in_three_boxes(shape: SkewShape) -> tuple[SkewShape, ...]:
    """The shape in its minimal box, with one more row, and with two more
    columns."""
    return (shape,
            SkewShape(shape.nu, shape.lam, shape.m + 1, shape.n),
            SkewShape(shape.nu, shape.lam, shape.m, shape.n + 2))


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
        for shape in _in_three_boxes(minimal):
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


def test_scan_matches_cell_by_cell_oracle_sweep():
    for minimal in all_skew_shapes(7):
        if minimal.size > 8:
            continue
        for shape in _in_three_boxes(minimal):
            poly = PasmPolytope(shape)
            for t in range(4):
                assert poly.dilate_integer_points(t) == list(_scan_integer_points(poly, t)), (shape, t)


@st.composite
def boxed_skew_shapes(draw, rows=4, cols=5):
    """A skew shape in an m x n box, m <= rows, n <= cols, within the dilate
    scan's guardrail of 8 cells."""
    m = draw(st.integers(1, rows))
    n = draw(st.integers(1, cols))
    nu = sorted(draw(st.lists(st.integers(0, n - 1), min_size=m - 1, max_size=m - 1)), reverse=True)
    # Sorting a pointwise-smaller sequence keeps it inside nu.
    lam = sorted((draw(st.integers(0, part)) for part in nu), reverse=True)
    assume(sum(nu) - sum(lam) <= DILATE_SIZE_LIMIT)
    return SkewShape(Partition(nu), Partition(lam), m, n)


@given(boxed_skew_shapes(), st.integers(0, 3))
def test_scan_matches_cell_by_cell_oracle_boxed(shape, t):
    poly = PasmPolytope(shape)
    oracle = list(_scan_integer_points(poly, t))
    assert poly.dilate_integer_points(t) == oracle
    assert poly.dilate_lattice_points(t).count == len(oracle)
    if t == 1:
        assert poly.integer_points_brute() == oracle


def _assert_t_at_most_one_scans_list_the_vertices(poly):
    verts = set(poly.vertices())
    assert set(poly.integer_points_brute()) == verts
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
