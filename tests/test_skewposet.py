import inspect
from fractions import Fraction
from itertools import combinations_with_replacement, permutations, product
from math import comb, factorial, perm, prod

import pytest
from hypothesis import Phase, given, settings, strategies as st

from pasmpoly import (
    Partition,
    SkewShape,
    UniPoly,
    build_poset,
    count_linear_extensions,
    enumerate_between,
    enumerate_filters,
    in_order_polytope,
    interpolate_polynomial,
    order_polynomial_value,
)
from pasmpoly._linalg import det
from pasmpoly.skewposet import (
    SkewPoset,
    _aitken_count,
    _gessel_viennot_values,
    _ideal_lattice,
    enumerate_order_preserving_maps,
    order_polynomial_values,
)

from families import all_skew_shapes, staircase
from golden import ORDER_POINT_422_31
from points import filter_indicator

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
    count = 0
    for vals in product(range(1, t + 1), repeat=d):
        if all(vals[a] <= vals[b] for a, b in P.covers):
            count += 1
    return count


def order_polynomial(P):
    """The order polynomial of P, interpolated from |P| + 1 exact values."""
    values = order_polynomial_values(P, len(P) + 1)
    return interpolate_polynomial(list(enumerate(values, start=1)))


def leading_term_check(P):
    """The degree-|P| coefficient of the order polynomial is e(P)/|P|!."""
    poly = order_polynomial(P)
    d = len(P)
    if d == 0:
        return poly == UniPoly([1])
    return poly.degree == d and poly.leading_coefficient == Fraction(
        count_linear_extensions(P), factorial(d)
    )


# Row 2 of (3,2,2)/(2,2) holds no cells; row 3 of (5,5,2)/(3,2) ends at
# column 2, where row 2 begins, so no cover joins the two rows.
EMPTY_MIDDLE_ROW = SkewShape(Partition([3, 2, 2]), Partition([2, 2]))
DISJOINT_ROWS = SkewShape(Partition([5, 5, 2]), Partition([3, 2]))

LATTICE_SHAPES = [
    *all_skew_shapes(7),
    EMPTY_MIDDLE_ROW,
    DISJOINT_ROWS,
    SkewShape(Partition([6] * 5), Partition()),
    SkewShape(Partition([8] * 6), Partition([4, 4, 4])),
]


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


def test_skew_poset_validation():
    with pytest.raises(ValueError, match="duplicate"):
        SkewPoset([(1, 1), (1, 1)], [])
    with pytest.raises(ValueError, match="out of range"):
        SkewPoset([(1, 1), (1, 2)], [(0, 2)])
    with pytest.raises(ValueError, match="smaller to larger"):
        SkewPoset([(1, 1), (1, 2)], [(1, 0)])


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


def test_ideal_lattice_is_the_interval_of_partitions():
    # An ideal of the nu/lam cell poset is mu/lam for a partition mu between
    # lam and nu, and x is maximal in it iff x is a corner cell of mu/lam:
    # the last cell of its row, with the row below shorter.
    for shape in LATTICE_SHAPES:
        P = build_poset(shape)
        ideals, covers = _ideal_lattice(P)
        interval = {sum(1 << P.index(c) for c in mu.diagram() - shape.lam.diagram()): mu
                    for mu in enumerate_between(shape.lam, shape.nu)}
        assert ideals == sorted(interval), shape
        corners = {(i, P.index((r, interval[I].part(r))))
                   for i, I in enumerate(ideals) for r in range(1, len(interval[I]) + 1)
                   if interval[I].part(r + 1) < interval[I].part(r) > shape.lam.part(r)}
        pairs = {(i, x) for x, xs in enumerate(covers) for i, j in xs
                 if ideals[j] == ideals[i] ^ 1 << x}
        assert pairs == corners, shape
        assert sum(map(len, covers)) == len(corners), shape


# Two cell posets built by hand, not by build_poset.
CHAIN = SkewPoset([(1, 1), (2, 1)], [(0, 1)])
# No cover joins rows 1 and 3, though row 3 reaches past row 1.
APART = SkewPoset([(1, 1), (3, 1), (3, 2)], [(1, 2)])


@pytest.mark.parametrize("elements, covers", [
    ([(1, 1), (1, 2)], []),                  # a missing east cover
    ([(1, 1), (2, 1)], []),                  # a missing south cover
    ([(1, 1), (1, 3)], [(0, 1)]),            # a row with a hole in it
    ([(1, 2), (1, 1)], [(0, 1)]),            # not in row-major order
    ([(1, 1), (2, 2)], []),                  # the lower row sticks out left
    ([(1, 1), (2, 1), (2, 2)], [(0, 1), (1, 2)]),  # ... and right
])
def test_counting_refuses_a_poset_that_is_not_a_skew_shape(elements, covers):
    # None of these is the cell poset of a skew shape; the lattice is grown
    # from P's own covers, so each is counted as the poset it is.
    P = SkewPoset(elements, covers)
    assert count_linear_extensions(P) == brute_linear_extension_count(P)
    assert order_polynomial_values(P, 2) == [brute_order_polynomial(P, t) for t in (1, 2)]
    monotone = [frozenset(c for c, v in zip(P.elements, vals) if v)
                for vals in product((0, 1), repeat=len(P))
                if all(vals[a] <= vals[b] for a, b in covers)]
    assert sorted(map(sorted, enumerate_filters(P))) == sorted(map(sorted, monotone))


def test_counting_takes_a_poset_built_by_hand():
    assert CHAIN == build_poset(SkewShape(Partition([1, 1]), Partition()))
    assert count_linear_extensions(CHAIN) == 1
    assert order_polynomial_values(CHAIN, 3) == [1, 3, 6]
    assert count_linear_extensions(APART) == 3
    assert order_polynomial_values(APART, 3) == [1, 6, 18]
    assert len(enumerate_filters(APART)) == 6


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


@pytest.mark.parametrize("count", [
    order_polynomial_values,
    order_polynomial_value,
    lambda P, t: list(enumerate_order_preserving_maps(P, t)),
], ids=["order_polynomial_values", "order_polynomial_value", "enumerate_order_preserving_maps"])
def test_counts_refuse_a_bool_or_a_non_int_t(count):
    # True once counted as 1, and 2.0 failed inside range.
    P = build_poset(EXAMPLE)
    count(P, 2)
    for bad in (True, 2.0, "2"):
        with pytest.raises(TypeError):
            count(P, bad)


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


# A recursive enumeration, kept as the reference that the odometer must
# match map for map and in order.
def _recursive_order_preserving_maps(P, t):
    d = len(P)
    vals = [0] * d

    def rec(k):
        if k == d:
            yield tuple(vals)
            return
        lo = 1
        for p in P.lower_covers(k):
            if vals[p] > lo:
                lo = vals[p]
        for v in range(lo, t + 1):
            vals[k] = v
            yield from rec(k + 1)

    yield from rec(0)


# Posets built by hand that are not cell posets: an antichain, a chain, and
# an element with two lower covers, one of them not its predecessor.
NOT_CELL_POSETS = [
    SkewPoset([(1, 1), (1, 3), (3, 1), (3, 3)], []),
    SkewPoset([(1, 1), (1, 3), (2, 2), (4, 1)], [(0, 1), (1, 2), (2, 3)]),
    SkewPoset([(1, 1), (1, 3), (2, 2), (3, 1)], [(0, 2), (1, 2)]),
]


def test_order_preserving_maps_match_the_recursive_reference():
    posets = [build_poset(shape) for shape in all_skew_shapes(7)] + NOT_CELL_POSETS
    cases = [(P, t) for P in posets for t in range(1, 6)]
    # Nine values on (2, 1) carry through every position.
    cases.append((build_poset(SkewShape(Partition([2, 1]), Partition())), 9))
    for P, t in cases:
        assert list(enumerate_order_preserving_maps(P, t)) == \
            list(_recursive_order_preserving_maps(P, t)), (P.elements, t)


def test_order_preserving_maps_edge_cases():
    empty = build_poset(SkewShape(Partition(), Partition()))
    assert list(enumerate_order_preserving_maps(empty, 1)) == [()]
    assert list(enumerate_order_preserving_maps(empty, 3)) == [()]
    for t in (0, -1):
        with pytest.raises(ValueError):
            next(enumerate_order_preserving_maps(build_poset(EXAMPLE), t))
    # The bench's span wrapper counts the maps of generator functions only.
    assert inspect.isgeneratorfunction(enumerate_order_preserving_maps)


def test_interpolate_polynomial_examples():
    assert interpolate_polynomial([(0, 1), (1, 1), (2, 1)]) == UniPoly([1])
    assert interpolate_polynomial([(1, 1), (2, 2)]) == UniPoly([0, 1])
    assert interpolate_polynomial([]) == UniPoly([])
    with pytest.raises(ValueError):
        interpolate_polynomial([(1, 1), (1, 2)])
    # Equal abscissae written differently are still equal.
    with pytest.raises(ValueError, match="duplicate abscissae"):
        interpolate_polynomial([(Fraction(2, 2), 0), (1, 5)])


def test_interpolate_polynomial_reads_int_and_fraction_samples_alike():
    # Int samples stay ints inside; the same samples as Fractions give an
    # equal polynomial, and every coefficient is a Fraction either way.
    P = build_poset(EXAMPLE)
    samples = list(enumerate(order_polynomial_values(P, len(P) + 1), start=1))
    as_fractions = [(F(t), F(v)) for t, v in samples]
    poly = interpolate_polynomial(samples)
    assert poly == interpolate_polynomial(as_fractions) == lagrange_interpolate(samples)
    assert poly.leading_coefficient == F(1, 3)
    for q in (poly, interpolate_polynomial(as_fractions), interpolate_polynomial([(0, 2), (2, 3)])):
        assert all(type(c) is Fraction for c in q.coeffs), q


small_rationals = st.fractions(min_value=-20, max_value=20, max_denominator=6)


@given(st.lists(st.tuples(small_rationals, small_rationals), min_size=1, max_size=8,
                unique_by=lambda s: s[0]))
def test_interpolate_polynomial_matches_lagrange_oracle(samples):
    poly = interpolate_polynomial(samples)
    assert poly == lagrange_interpolate(samples)
    assert all(poly(x) == y for x, y in samples)


# Negative abscissae that are not integers: x = -k - r/b with 0 < r < b.
negative_fractions = st.integers(2, 9).flatmap(
    lambda b: st.builds(lambda k, r: -k - Fraction(r, b), st.integers(0, 20), st.integers(1, b - 1)))


# deadline: the Lagrange oracle is O(n^3) Fraction work.  phases: no
# shrink, since shrinking a failure here through the slow oracle takes
# minutes; the failing draw is reported as drawn.
@settings(deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(st.lists(st.tuples(negative_fractions, small_rationals), min_size=1, max_size=12,
                unique_by=lambda s: s[0]))
def test_interpolate_polynomial_on_negative_fractional_abscissae(samples):
    poly = interpolate_polynomial(samples)
    assert poly == lagrange_interpolate(samples)
    assert all(poly(x) == y for x, y in samples)


def test_interpolate_polynomial_matches_oracle_on_degree_30_ehrhart_samples():
    P = build_poset(SkewShape(Partition([6] * 5), Partition()))
    samples = list(enumerate(order_polynomial_values(P, 31)))  # L(t) = Omega(P, t + 1)
    assert samples[1] == (1, 462)
    poly = interpolate_polynomial(samples)
    assert poly.degree == 30
    assert poly == lagrange_interpolate(samples)


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


def test_gessel_viennot_matches_the_zeta_passes():
    for shape in all_skew_shapes(8):
        P = build_poset(shape)
        assert (_gessel_viennot_values(shape.nu, shape.lam, len(P) + 1)
                == order_polynomial_values(P, len(P) + 1)), shape
    assert _gessel_viennot_values(Partition([2, 1]), Partition(), 0) == []


def test_aitken_matches_the_chain_count():
    for shape in all_skew_shapes(8):
        assert _aitken_count(shape.nu, shape.lam) == count_linear_extensions(build_poset(shape)), shape


def test_gessel_viennot_matches_proctor_on_the_staircase():
    # L(t) = Omega(P, t + 1) on delta_n is prod_{i<j<=n} (2t + i + j - 1)/(i + j - 1).
    for n in range(1, 13):
        values = _gessel_viennot_values(staircase(n), Partition(), 5)
        assert values == [prod(F(2 * t + i + j - 1, i + j - 1)
                               for j in range(1, n + 1) for i in range(1, j))
                          for t in range(5)], n


def test_gessel_viennot_matches_macmahon_on_the_box():
    # L(t) on a^b counts the plane partitions in a b x a x t box.
    for a in range(1, 9):
        for b in range(1, 9):
            values = _gessel_viennot_values(Partition([a] * b), Partition(), 5)
            assert values == [prod(F(i + j + k - 1, i + j + k - 2) for i in range(1, b + 1)
                                   for j in range(1, a + 1) for k in range(1, t + 1))
                              for t in range(5)], (a, b)


def test_determinant_mutants_fail_on_small_shapes():
    # Gessel-Viennot with h at t in every entry, not t + i - j, and Aitken
    # with 1/(nu_i - lam_j)!, not 1/(nu_i - lam_j - i + j)!, each miss the
    # lattice walks on some shape; the pins above would catch either.
    def h(k, N):
        return 1 if k == 0 else comb(N + k - 1, k) if k > 0 and N + k - 1 >= 0 else 0

    unshifted, unaligned = [], []
    for shape in all_skew_shapes(6):
        P = build_poset(shape)
        rows = range(1, len(shape.nu) + 1)
        nu, lam = shape.nu.part, shape.lam.part
        gv = [det([[h(nu(i) - lam(j) - i + j, t) for j in rows] for i in rows]) for t in (1, 2, 3)]
        unshifted.append(gv != order_polynomial_values(P, 3))
        aitken = F(factorial(shape.size) * det([[perm(nu(i), lam(j)) for j in rows] for i in rows]),
                   prod(factorial(nu(i)) for i in rows))
        unaligned.append(aitken != count_linear_extensions(P))
    assert any(unshifted) and any(unaligned)


def test_polynomials_refuse_floats_and_bools():
    # Fraction(0.1) is 3602879701896397/36028797018963968, not 1/10.
    for bad in (0.1, True):
        refused = f"exact values must be int or Fraction, got {type(bad).__name__}"
        with pytest.raises(TypeError, match=refused):
            UniPoly([bad])
        with pytest.raises(TypeError, match=refused):
            interpolate_polynomial([(0, bad), (1, 1)])
        with pytest.raises(TypeError, match=refused):
            interpolate_polynomial([(bad, 0), (2, 1)])
        with pytest.raises(TypeError, match=refused):
            UniPoly([1, 2])(bad)


def test_unipoly_basics():
    p = UniPoly([F(1), F(0), F(0), F(0)])
    assert p.degree == 0 and p.coeffs == (F(1),)
    q = UniPoly([1, 2])
    assert q(3) == 7
    assert q.to_json() == ["1", "2"]
    assert UniPoly([F(1, 3)]).to_json() == ["1/3"]
    # Every coefficient is a Fraction, an int and an integral Fraction alike.
    r = UniPoly([2, F(1, 2), F(4, 2), 0, F(0)])
    assert r.coeffs == (2, F(1, 2), 2)
    assert all(type(c) is Fraction for c in (*r.coeffs, *q.coeffs, UniPoly().leading_coefficient))


def test_poset_json_round_trip():
    P = build_poset(EXAMPLE)
    data = P.to_json()
    assert data["elements"] == [[1, 4], [2, 2], [3, 1], [3, 2]]
    assert SkewPoset.from_json(data) == P
