import pytest
from hypothesis import given, strategies as st

from pasmpoly import Partition, SkewShape, border_strip, cells, contains, enumerate_between
from families import all_skew_shapes, partitions_of_size_at_most
from golden import STRIP_422, STRIP_5331


@st.composite
def partitions(draw, max_len=5, max_part=6):
    length = draw(st.integers(min_value=0, max_value=max_len))
    parts = sorted(
        draw(st.lists(st.integers(1, max_part), min_size=length, max_size=length)),
        reverse=True,
    )
    return Partition(parts)


def test_partition_normalizes_trailing_zeros():
    assert Partition([4, 2, 2, 0, 0]) == Partition([4, 2, 2])
    assert Partition([]) == Partition()
    assert len(Partition([3, 1])) == 2
    assert Partition([3, 1]).part(2) == 1
    assert Partition([3, 1]).part(7) == 0


def test_partition_rejects_bad_input():
    with pytest.raises(ValueError):
        Partition([1, 2])
    with pytest.raises(ValueError):
        Partition([2, -1])
    with pytest.raises(ValueError):
        Partition([2, 0, 1])


def test_partition_conjugate():
    assert Partition([4, 2, 2]).conjugate() == Partition([3, 3, 1, 1])
    assert Partition([3, 2, 1]).conjugate() == Partition([3, 2, 1])
    assert Partition().conjugate() == Partition()


def test_contains_examples():
    assert contains(Partition([3, 1]), Partition([4, 2, 2]))
    assert contains(Partition(), Partition([5, 5, 1]))
    assert not contains(Partition([2, 2]), Partition([3, 1]))


def test_enumerate_between_worked_example():
    mus = enumerate_between(Partition([3, 1]), Partition([4, 2, 2]))
    assert [tuple(mu) for mu in mus] == [
        (3, 1), (3, 1, 1), (3, 2), (3, 2, 1), (3, 2, 2),
        (4, 1), (4, 1, 1), (4, 2), (4, 2, 1), (4, 2, 2),
    ]


def test_enumerate_between_degenerate():
    lam = Partition([2, 1])
    assert enumerate_between(lam, lam) == [lam]
    assert enumerate_between(Partition(), Partition([1])) == [Partition(), Partition([1])]


def test_enumerate_between_rejects_non_nested():
    with pytest.raises(ValueError):
        enumerate_between(Partition([2, 2]), Partition([3, 1]))


@given(partitions(), partitions())
def test_enumerate_between_interval_property(lam, nu):
    if not contains(lam, nu):
        return
    mus = enumerate_between(lam, nu)
    assert len(set(mus)) == len(mus)
    for mu in mus:
        assert contains(lam, mu) and contains(mu, nu)


def test_enumerate_between_counts_filters():
    # mu -> mu/lam maps the interval onto the order ideals of the cell poset,
    # which are exactly the complements of its order filters.
    from pasmpoly import build_poset, enumerate_filters

    for shape in all_skew_shapes(6):
        mus = enumerate_between(shape.lam, shape.nu)
        P = build_poset(shape)
        ideals = [frozenset(P.elements) - f for f in enumerate_filters(P)]
        assert len(mus) == len(ideals) == len(set(ideals))
        assert {mu.diagram() - shape.lam.diagram() for mu in mus} == set(ideals)


def test_border_strip_golden():
    assert border_strip(Partition([5, 3, 3, 1]), 5, 7) == STRIP_5331
    assert border_strip(Partition([4, 2, 2]), 4, 5) == STRIP_422
    assert border_strip(Partition(), 2, 2) == frozenset({(1, 1)})


def test_border_strip_rejects_oversized():
    with pytest.raises(ValueError):
        border_strip(Partition([5]), 2, 5)
    with pytest.raises(ValueError):
        border_strip(Partition([2, 1]), 2, 5)


def _is_edge_connected(cells_set):
    cells_set = set(cells_set)
    start = next(iter(cells_set))
    seen = {start}
    frontier = [start]
    while frontier:
        i, j = frontier.pop()
        for nb in ((i + 1, j), (i - 1, j), (i, j + 1), (i, j - 1)):
            if nb in cells_set and nb not in seen:
                seen.add(nb)
                frontier.append(nb)
    return seen == cells_set


def test_border_strip_properties():
    for nu in partitions_of_size_at_most(7):
        m, n = len(nu) + 1, nu.part(1) + 1
        strip = border_strip(nu, m, n)
        assert strip, "strip is never empty"
        assert strip.isdisjoint(nu.diagram())
        assert _is_edge_connected(strip)
        for (i, j) in strip:
            assert 1 <= i <= m and 1 <= j <= n
            square = {(i, j), (i + 1, j), (i, j + 1), (i + 1, j + 1)}
            assert not square <= strip, f"2x2 square at {(i, j)}"


def test_skew_cells():
    shape = SkewShape(Partition([4, 2, 2]), Partition([3, 1]), 4, 5)
    assert cells(shape) == ((1, 4), (2, 2), (3, 1), (3, 2))
    assert SkewShape(Partition([2, 1]), Partition([2, 1])).cells() == ()
    assert SkewShape(Partition([2, 1]), Partition()).cells() == ((1, 1), (1, 2), (2, 1))


def test_skew_shape_validation():
    with pytest.raises(ValueError):
        SkewShape(Partition([3, 1]), Partition([2, 2]))
    with pytest.raises(ValueError):
        SkewShape(Partition([4]), Partition(), m=2, n=4)  # nu_1 > n-1
    with pytest.raises(ValueError):
        SkewShape(Partition([1, 1]), Partition(), m=2, n=2)  # too many rows


def test_minimal_box_defaults():
    shape = SkewShape(Partition([4, 2, 2]), Partition([3, 1]))
    assert (shape.m, shape.n) == (4, 5)
    assert (SkewShape(Partition(), Partition()).m, SkewShape(Partition(), Partition()).n) == (1, 1)


def test_partition_json_round_trip():
    p = Partition([4, 2, 2])
    assert Partition.from_json(p.to_json()) == p
    assert Partition.from_json([]) == Partition()
