from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, strategies as st

import pasmpoly.hooklength
from pasmpoly import (
    Partition,
    SkewShape,
    build_poset,
    count_linear_extensions,
    excited_diagrams,
    hooks,
    naruse_count,
)
from pasmpoly.shapes import contains, enumerate_between

from families import all_skew_shapes, partitions_of_size_at_most


def oracle_excited_diagrams(nu, lam):
    """Breadth-first search over frozensets of cells, deduplicated; sorted by
    the sorted cell lists."""
    if not contains(lam, nu):
        raise ValueError(f"{lam!r} is not contained in {nu!r}")
    ambient = nu.diagram()
    start = frozenset(lam.diagram())
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for diag in frontier:
            for (i, j) in diag:
                if (
                    (i, j + 1) not in diag
                    and (i + 1, j) not in diag
                    and (i + 1, j + 1) not in diag
                    and (i + 1, j + 1) in ambient
                ):
                    moved = (diag - {(i, j)}) | {(i + 1, j + 1)}
                    if moved not in seen:
                        seen.add(moved)
                        nxt.append(moved)
        frontier = nxt
    return sorted(seen, key=lambda d: sorted(d))


def oracle_naruse_count(nu, lam):
    """|nu/lam|! * sum over excited diagrams D of prod over cells of nu not in
    D of 1/h(cell), in Fraction arithmetic."""
    h = hooks(nu)
    ambient = nu.diagram()
    total = Fraction(0)
    for diag in oracle_excited_diagrams(nu, lam):
        prod = Fraction(1)
        for cell in ambient - diag:
            prod /= h[cell]
        total += prod
    result = factorial(nu.size - lam.size) * total
    assert result.denominator == 1
    return int(result)


@st.composite
def skew_shapes_in_box(draw, rows=5, cols=5):
    """A pair (nu, lam) with lam contained in nu, both in a rows x cols box."""
    nu = sorted(draw(st.lists(st.integers(0, cols), min_size=rows, max_size=rows)), reverse=True)
    lam = []
    for part in nu:
        lam.append(draw(st.integers(0, min(part, lam[-1] if lam else part))))
    return Partition([p for p in nu if p]), Partition([p for p in lam if p])


def test_hooks_examples():
    assert hooks(Partition([1])) == {(1, 1): 1}
    assert hooks(Partition([2, 1])) == {(1, 1): 3, (1, 2): 1, (2, 1): 1}
    assert hooks(Partition([4, 2, 2])) == {
        (1, 1): 6, (1, 2): 5, (1, 3): 2, (1, 4): 1,
        (2, 1): 3, (2, 2): 2,
        (3, 1): 2, (3, 2): 1,
    }
    assert hooks(Partition()) == {}


def test_classical_hook_length_formula():
    # With nothing removed the excited sum degenerates to |nu|! / prod h(u),
    # which must equal the linear extension count of the full shape.
    for nu in partitions_of_size_at_most(7):
        h = hooks(nu)
        prod = 1
        for v in h.values():
            prod *= v
        assert factorial(nu.size) % prod == 0
        expected = factorial(nu.size) // prod
        assert naruse_count(nu, Partition()) == expected
        assert count_linear_extensions(build_poset(SkewShape(nu, Partition()))) == expected


def test_excited_diagrams_trivial():
    assert excited_diagrams(Partition([3, 2]), Partition()) == [frozenset()]


def test_excited_diagrams_single_cell():
    diagrams = excited_diagrams(Partition([2, 2]), Partition([1]))
    assert sorted(map(sorted, diagrams)) == [[(1, 1)], [(2, 2)]]


def test_excited_diagrams_rejects_non_nested():
    with pytest.raises(ValueError):
        excited_diagrams(Partition([1]), Partition([2]))


def test_excited_diagrams_shape_invariants():
    for shape in all_skew_shapes(6):
        ambient = shape.nu.diagram()
        diagrams = excited_diagrams(shape.nu, shape.lam)
        assert len(set(diagrams)) == len(diagrams)
        assert frozenset(shape.lam.diagram()) in diagrams
        for D in diagrams:
            assert len(D) == shape.lam.size
            assert D <= ambient


def test_naruse_count_examples():
    assert naruse_count(Partition([2, 1]), Partition()) == 2
    assert naruse_count(Partition([3, 1]), Partition([3, 1])) == 1
    assert naruse_count(Partition(), Partition()) == 1
    assert naruse_count(Partition([4, 2, 2]), Partition([3, 1])) == 8


def test_naruse_count_worked_example_diagram_count():
    # The excited sum for (4,2,2)/(3,1) runs over two diagrams, with hook
    # complements contributing 1/4 + 1/12 = 1/3; frozen after cross-checking
    # the total 24 * 1/3 = 8 against the extension count.
    diagrams = excited_diagrams(Partition([4, 2, 2]), Partition([3, 1]))
    assert len(diagrams) == 2


def test_naruse_equals_linear_extensions_sweep():
    for nu in partitions_of_size_at_most(8):
        for lam in enumerate_between(Partition(), nu):
            e = count_linear_extensions(build_poset(SkewShape(nu, lam)))
            assert naruse_count(nu, lam) == e, (nu, lam)


@given(skew_shapes_in_box())
def test_hook_sum_matches_oracles_in_five_by_five_box(shape):
    nu, lam = shape
    assert excited_diagrams(nu, lam) == oracle_excited_diagrams(nu, lam)
    e = naruse_count(nu, lam)
    assert e == oracle_naruse_count(nu, lam)
    assert e == count_linear_extensions(build_poset(SkewShape(nu, lam)))


def test_excited_diagrams_match_oracle_sweep():
    for shape in all_skew_shapes(6):
        assert excited_diagrams(shape.nu, shape.lam) == oracle_excited_diagrams(shape.nu, shape.lam)


def test_naruse_count_rejects_non_nested():
    with pytest.raises(ValueError):
        naruse_count(Partition([1]), Partition([2]))


def test_naruse_count_integrality_check(monkeypatch):
    # With h(1,1) of (2,1) raised from 3 to 4 the sum is 3! / (4 * 1 * 1),
    # not an integer; the check must refuse it rather than round.
    true_hooks = hooks

    def perturbed(nu):
        table = true_hooks(nu)
        table[(1, 1)] += 1
        return table

    monkeypatch.setattr(pasmpoly.hooklength, "hooks", perturbed)
    with pytest.raises(ArithmeticError):
        naruse_count(Partition([2, 1]), Partition())
