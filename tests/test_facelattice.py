import pytest

from pasmpoly import (
    Matrix,
    Partition,
    PasmPolytope,
    SkewShape,
    basic_sum_labeling,
    face_labeling,
    outline_edges,
    region_count,
    union_sum_labeling,
    vertex_matrix,
)
from pasmpoly.facelattice import (
    labeling_to_dot,
    labeling_to_json,
)

from families import all_skew_shapes
from golden import OUTLINE_31_4x5, OUTLINE_422_4x5, OUTLINE_SHARED_4x5

EXAMPLE = SkewShape(Partition([4, 2, 2]), Partition([3, 1]), 4, 5)


def grid_edges(m, n):
    """All 2mn edges of the grid graph, horizontals first."""
    hs = [("H", i, j) for i in range(1, m + 1) for j in range(1, n + 1)]
    vs = [("V", i, j) for i in range(1, m + 1) for j in range(1, n + 1)]
    return hs + vs


def test_grid_edges_count():
    assert len(grid_edges(4, 5)) == 2 * 4 * 5
    assert len(set(grid_edges(4, 5))) == 40
    # The face labeling labels every grid edge, in the same order.
    assert list(face_labeling(PasmPolytope(EXAMPLE))) == grid_edges(4, 5)


def test_outline_edges_worked_example():
    assert outline_edges(Partition([3, 1]), 4, 5) == OUTLINE_31_4x5
    assert outline_edges(Partition([4, 2, 2]), 4, 5) == OUTLINE_422_4x5
    assert OUTLINE_31_4x5 & OUTLINE_422_4x5 == OUTLINE_SHARED_4x5


def test_outline_edges_empty_partition():
    assert outline_edges(Partition(), 2, 2) == frozenset(
        {("H", 1, 1), ("H", 1, 2), ("V", 1, 1), ("V", 2, 1)}
    )


def test_outline_edges_rejects_oversized():
    with pytest.raises(ValueError):
        outline_edges(Partition([5]), 4, 5)


def test_basic_sum_labeling_trivial():
    lab = basic_sum_labeling(Matrix([[0]]))
    assert lab == {("H", 1, 1): frozenset({0}), ("V", 1, 1): frozenset({0})}


def test_basic_sum_labeling_profile_of_empty():
    lab = basic_sum_labeling(vertex_matrix(Partition(), 2, 2))
    ones = {e for e, s in lab.items() if s == frozenset({1})}
    assert ones == {("H", 1, 1), ("H", 1, 2), ("V", 1, 1), ("V", 2, 1)}
    assert all(s == frozenset({0}) for e, s in lab.items() if e not in ones)


def test_basic_sum_labeling_rejects_non_pasm():
    with pytest.raises(ValueError):
        basic_sum_labeling(Matrix([[2]]))


def test_basic_labeling_ones_trace_the_outline():
    # The 1-labeled edges of a profile matrix are exactly its outline.
    from pasmpoly.shapes import enumerate_between

    for m in range(2, 5):
        for n in range(2, 5):
            box = Partition([n - 1] * (m - 1))
            for mu in enumerate_between(Partition(), box):
                lab = basic_sum_labeling(vertex_matrix(mu, m, n))
                ones = {e for e, s in lab.items() if s == frozenset({1})}
                assert ones == outline_edges(mu, m, n), (mu, m, n)


def test_union_of_single_matrix_is_basic():
    M = vertex_matrix(Partition([3, 1]), 4, 5)
    assert union_sum_labeling([M]) == basic_sum_labeling(M)


def test_union_two_by_two():
    a = vertex_matrix(Partition(), 2, 2)
    b = vertex_matrix(Partition([1]), 2, 2)
    lab = union_sum_labeling([a, b])
    both = {e for e, s in lab.items() if s == frozenset({0, 1})}
    ones = {e for e, s in lab.items() if s == frozenset({1})}
    assert both == {("H", 1, 1), ("H", 2, 1), ("V", 1, 1), ("V", 1, 2)}
    assert ones == {("H", 1, 2), ("V", 2, 1)}


def test_union_rejects_bad_input():
    with pytest.raises(ValueError):
        union_sum_labeling([])
    with pytest.raises(ValueError):
        union_sum_labeling([Matrix([[0]]), Matrix([[0, 0]])])


def test_union_is_monotone():
    mats = PasmPolytope(EXAMPLE).vertices()
    partial = union_sum_labeling(mats[:4])
    full = union_sum_labeling(mats)
    assert all(partial[e] <= full[e] for e in partial)


def test_face_labeling_equals_union_of_vertices():
    for shape in all_skew_shapes(6):
        poly = PasmPolytope(shape)
        assert face_labeling(poly) == union_sum_labeling(poly.vertices()), shape


def test_face_labeling_singleton_for_point():
    lam = Partition([2, 1])
    lab = face_labeling(PasmPolytope(SkewShape(lam, lam)))
    assert all(len(s) == 1 for s in lab.values())
    assert region_count(lab) == 0


def test_region_count_worked_example():
    assert region_count(face_labeling(PasmPolytope(EXAMPLE))) == 4


def test_region_count_small():
    lab = face_labeling(PasmPolytope(SkewShape(Partition([2, 1]), Partition(), 3, 3)))
    assert region_count(lab) == 3
    square = PasmPolytope(SkewShape(Partition([1]), Partition(), 2, 2))
    assert region_count(face_labeling(square)) == 1
    assert region_count({}) == 0


def test_region_count_matches_dimension_sweep():
    for shape in all_skew_shapes(7):
        poly = PasmPolytope(shape)
        assert region_count(face_labeling(poly)) == shape.size == poly.dimension()


def test_labeling_json_round_trip():
    lab = face_labeling(PasmPolytope(EXAMPLE))
    data = labeling_to_json(lab)
    assert data["1,5,H"] == [1]


def test_labeling_dot_styles():
    dot = labeling_to_dot(face_labeling(PasmPolytope(EXAMPLE)))
    assert "style=bold" in dot and "style=dotted" in dot and "style=solid" in dot
