from fractions import Fraction
from itertools import combinations_with_replacement, permutations
from math import factorial

import pytest
from hypothesis import given, strategies as st

from pasmpoly import (
    Partition,
    SkewShape,
    UniPoly,
    build_poset,
    count_linear_extensions,
    enumerate_filters,
    in_order_polytope,
    interpolate_polynomial,
    order_polynomial_value,
)
from pasmpoly.skewposet import (
    SkewPoset,
    enumerate_order_preserving_maps,
    filter_indicator,
    leading_term_check,
    order_polynomial,
    order_polynomial_values,
)

from families import all_skew_shapes
from golden import ORDER_POINT_422_31

F = Fraction

EXAMPLE = SkewShape(Partition([4, 2, 2]), Partition([3, 1]), 4, 5)


def brute_linear_extension_count(P):
    """Oracle: filter all |P|! orderings by the cover relations."""
    d = len(P)
    count = 0
    for perm in permutations(range(d)):
        position = {e: k for k, e in enumerate(perm)}
        if all(position[a] < position[b] for a, b in P.covers):
            count += 1
    return count


def brute_order_polynomial(P, t):
    """Oracle: filter all t^|P| value assignments by monotonicity."""
    d = len(P)
    from itertools import product

    count = 0
    for vals in product(range(1, t + 1), repeat=d):
        if all(vals[a] <= vals[b] for a, b in P.covers):
            count += 1
    return count


def lagrange_interpolate(values):
    """Oracle: Lagrange accumulation over exact rationals, O(n^3) operations."""
    xs = [Fraction(x) for x, _ in values]
    ys = [Fraction(y) for _, y in values]
    n = len(xs)
    coeffs = [Fraction(0)] * max(n, 1)
    for k in range(n):
        basis = [Fraction(1)]
        denom = Fraction(1)
        for l in range(n):
            if l == k:
                continue
            # multiply basis by (x - xs[l])
            nxt = [Fraction(0)] * (len(basis) + 1)
            for p, c in enumerate(basis):
                nxt[p] -= c * xs[l]
                nxt[p + 1] += c
            basis = nxt
            denom *= xs[k] - xs[l]
        scale = ys[k] / denom
        for p, c in enumerate(basis):
            coeffs[p] += scale * c
    return UniPoly(coeffs)


def test_build_poset_worked_example():
    P = build_poset(EXAMPLE)
    assert P.elements == ((1, 4), (2, 2), (3, 1), (3, 2))
    covered = {(P.elements[a], P.elements[b]) for a, b in P.covers}
    assert covered == {((2, 2), (3, 2)), ((3, 1), (3, 2))}
    assert P.minimal_indices() == (0, 1, 2)
    assert P.maximal_indices() == (0, 3)


def test_build_poset_degenerate():
    P = build_poset(SkewShape(Partition([2, 1]), Partition([2, 1])))
    assert len(P) == 0
    hook = build_poset(SkewShape(Partition([2, 1]), Partition()))
    assert hook.elements == ((1, 1), (1, 2), (2, 1))
    assert {(hook.elements[a], hook.elements[b]) for a, b in hook.covers} == {
        ((1, 1), (1, 2)),
        ((1, 1), (2, 1)),
    }


def test_in_order_polytope():
    P = build_poset(EXAMPLE)
    assert in_order_polytope(P, ORDER_POINT_422_31)
    assert in_order_polytope(P, {c: 0 for c in P.elements})
    assert in_order_polytope(P, {c: 1 for c in P.elements})
    bad = {(1, 4): 0, (2, 2): 1, (3, 1): 0, (3, 2): 0}
    assert not in_order_polytope(P, bad)  # violates (2,2) <= (3,2)
    assert not in_order_polytope(P, {c: 2 for c in P.elements})
    with pytest.raises(ValueError):
        in_order_polytope(P, {(1, 4): 0})


def test_count_linear_extensions_examples():
    assert count_linear_extensions(build_poset(SkewShape(Partition([2, 1]), Partition()))) == 2
    assert count_linear_extensions(build_poset(EXAMPLE)) == 8
    assert count_linear_extensions(build_poset(SkewShape(Partition(), Partition()))) == 1


def test_count_linear_extensions_against_permutation_oracle():
    for shape in all_skew_shapes(6):
        if shape.size > 6:
            continue
        P = build_poset(shape)
        assert count_linear_extensions(P) == brute_linear_extension_count(P)


def test_order_polynomial_examples():
    P = build_poset(EXAMPLE)
    assert order_polynomial_value(P, 1) == 1
    assert order_polynomial_value(P, 2) == 10
    assert order_polynomial_value(P, 3) == 42
    with pytest.raises(ValueError):
        order_polynomial_value(P, 0)


def test_order_polynomial_two_paths_agree():
    for shape in all_skew_shapes(6, max_skew_size=5):
        P = build_poset(shape)
        for t in range(1, 5):
            assert order_polynomial_value(P, t) == brute_order_polynomial(P, t), (shape, t)


def test_order_polynomial_beyond_fifteen_elements():
    P = build_poset(SkewShape(Partition([5, 5, 5, 5]), Partition()))
    assert len(P) == 20
    values = [order_polynomial_value(P, t) for t in range(1, 6)]
    assert values == [1, 126, 5292, 116424, 1646568]
    assert order_polynomial_values(P, 5) == values
    assert order_polynomial_values(P, 0) == []
    with pytest.raises(ValueError):
        order_polynomial_values(P, -1)


# Every skew shape with 6 to 8 cells in a 4 x 4 box.  Sampling from the list
# keeps hypothesis from discarding most draws (its filter health check).
_BOX = [sorted(c, reverse=True) for c in combinations_with_replacement(range(5), 4)]
SMALL_SHAPES = [
    SkewShape(Partition([p for p in nu if p]), Partition([p for p in lam if p]))
    for nu in _BOX
    for lam in _BOX
    if all(a <= b for a, b in zip(lam, nu)) and 6 <= sum(nu) - sum(lam) <= 8
]


def skew_posets():
    """Cell posets of random skew shapes with 6 to 8 cells in a 4 x 4 box."""
    return st.sampled_from(SMALL_SHAPES).map(build_poset)


@given(skew_posets(), st.integers(1, 3))
def test_order_polynomial_values_match_map_enumeration(P, t_max):
    assert order_polynomial_values(P, t_max) == [
        sum(1 for _ in enumerate_order_preserving_maps(P, t)) for t in range(1, t_max + 1)
    ]


def test_order_polynomial_at_two_counts_filters():
    for shape in all_skew_shapes(6):
        P = build_poset(shape)
        assert order_polynomial_value(P, 2) == len(enumerate_filters(P))


def test_enumerate_filters_examples():
    P = build_poset(EXAMPLE)
    filters = enumerate_filters(P)
    assert len(filters) == 10
    empty = build_poset(SkewShape(Partition(), Partition()))
    assert enumerate_filters(empty) == [frozenset()]
    chain = SkewPoset([(1, 1), (2, 1)], [(0, 1)])
    assert sorted(map(sorted, enumerate_filters(chain))) == [[], [(1, 1), (2, 1)], [(2, 1)]]


def test_filters_are_exactly_monotone_01_points():
    for shape in all_skew_shapes(5):
        P = build_poset(shape)
        filters = set(enumerate_filters(P))
        d = len(P)
        from itertools import product

        monotone = set()
        for bits in product((0, 1), repeat=d):
            point = {c: b for c, b in zip(P.elements, bits)}
            if in_order_polytope(P, point):
                monotone.add(frozenset(c for c in P.elements if point[c] == 1))
        assert filters == monotone
        assert all(
            in_order_polytope(P, filter_indicator(P, f)) for f in filters
        )


def test_order_preserving_map_enumeration():
    P = build_poset(EXAMPLE)
    maps = list(enumerate_order_preserving_maps(P, 2))
    assert len(maps) == 10
    assert len(set(maps)) == 10
    for vals in maps:
        assert all(vals[a] <= vals[b] for a, b in P.covers)


def test_interpolate_polynomial_examples():
    assert interpolate_polynomial([(0, 1), (1, 1), (2, 1)]) == UniPoly([1])
    assert interpolate_polynomial([(1, 1), (2, 2)]) == UniPoly([0, 1])
    with pytest.raises(ValueError):
        interpolate_polynomial([(1, 1), (1, 2)])


small_rationals = st.fractions(min_value=-20, max_value=20, max_denominator=6)


@given(st.lists(st.tuples(small_rationals, small_rationals), min_size=1, max_size=8,
                unique_by=lambda s: s[0]))
def test_interpolate_polynomial_matches_lagrange_oracle(samples):
    poly = interpolate_polynomial(samples)
    assert poly == lagrange_interpolate(samples)
    assert all(poly(x) == y for x, y in samples)


def test_interpolate_polynomial_matches_oracle_on_ehrhart_samples():
    for shape in all_skew_shapes(6):
        P = build_poset(shape)
        samples = list(enumerate(order_polynomial_values(P, len(P) + 1), start=1))
        assert interpolate_polynomial(samples) == lagrange_interpolate(samples), shape


def test_order_polynomial_leading_coefficient():
    P = build_poset(EXAMPLE)
    samples = [(t, order_polynomial_value(P, t)) for t in range(1, 6)]
    poly = interpolate_polynomial(samples)
    assert poly.degree == 4
    assert poly.leading_coefficient == F(1, 3)


def test_leading_term_check_sweep():
    for shape in all_skew_shapes(7):
        if shape.size <= 7:
            assert leading_term_check(build_poset(shape)), shape


def test_order_polynomial_closed_form_on_chain():
    # On a 3-chain the order polynomial is binom(t+2, 3).
    chain = build_poset(SkewShape(Partition([1, 1, 1]), Partition()))
    poly = order_polynomial(chain)
    assert [poly(t) for t in (1, 2, 3, 4)] == [1, 4, 10, 20]
    assert poly.leading_coefficient == F(1, factorial(3))


def test_unipoly_basics():
    p = UniPoly([F(1), F(0), F(0), F(0)])
    assert p.degree == 0 and p.coeffs == (F(1),)
    q = UniPoly([1, 2])
    assert q(3) == 7
    assert q.to_json() == ["1", "2"]
    assert UniPoly([F(1, 3)]).to_json() == ["1/3"]


def test_poset_json_round_trip():
    P = build_poset(EXAMPLE)
    data = P.to_json()
    assert data["elements"] == [[1, 4], [2, 2], [3, 1], [3, 2]]
    assert SkewPoset.from_json(data) == P
