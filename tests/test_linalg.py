"""The integer kernels of ``pasmpoly._linalg`` against ``Fraction`` oracles."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from pasmpoly import Partition, PasmPolytope, SkewShape
from pasmpoly._linalg import (
    _integer_row,
    convex_combination_exists,
    det,
    rank,
)

from families import all_skew_shapes

F = Fraction


def fraction_rank(rows):
    """Oracle: Gauss-Jordan elimination over the rationals."""
    mat = [[Fraction(x) for x in row] for row in rows]
    if not mat:
        return 0
    ncols = len(mat[0])
    r = 0
    for col in range(ncols):
        pivot = next((i for i in range(r, len(mat)) if mat[i][col] != 0), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = 1 / mat[r][col]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col] != 0:
                factor = mat[i][col]
                mat[i] = [a - factor * b for a, b in zip(mat[i], mat[r])]
        r += 1
        if r == len(mat):
            break
    return r


def fraction_phase1_simplex(A, b):
    """Oracle: phase-1 simplex with Bland's rule on a ``Fraction`` tableau."""
    m, n = len(A), (len(A[0]) if A else 0)
    for i in range(m):
        if b[i] < 0:
            A[i] = [-x for x in A[i]]
            b[i] = -b[i]
    tab = [A[i] + [Fraction(1) if k == i else Fraction(0) for k in range(m)] + [b[i]]
           for i in range(m)]
    basis = [n + i for i in range(m)]
    total = n + m
    cost = [Fraction(0)] * (total + 1)
    for i in range(m):
        for k in range(total + 1):
            cost[k] += tab[i][k]
    while True:
        entering = next((k for k in range(n) if k not in basis and cost[k] > 0), None)
        if entering is None:
            break
        leaving, best = None, None
        for i in range(m):
            if tab[i][entering] > 0:
                ratio = tab[i][total] / tab[i][entering]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leaving]):
                    leaving, best = i, ratio
        if leaving is None:
            return False
        piv = tab[leaving][entering]
        tab[leaving] = [x / piv for x in tab[leaving]]
        for i in range(m):
            if i != leaving and tab[i][entering] != 0:
                f = tab[i][entering]
                tab[i] = [a - f * c for a, c in zip(tab[i], tab[leaving])]
        f = cost[entering]
        cost = [a - f * c for a, c in zip(cost, tab[leaving])]
        basis[leaving] = entering
    return cost[total] == 0


def fraction_convex_combination_exists(target, others):
    """Oracle for ``convex_combination_exists`` on the ``Fraction`` simplex."""
    if not others:
        return False
    A = [[Fraction(o[i]) for o in others] for i in range(len(target))]
    b = [Fraction(x) for x in target]
    A.append([Fraction(1)] * len(others))
    b.append(Fraction(1))
    return fraction_phase1_simplex(A, b)


def checked_bareiss_rank(rows):
    """Bareiss elimination as in ``rank``, asserting that every division by
    the previous pivot leaves remainder zero."""
    sub = [_integer_row(row) for row in rows]
    r, prev = 0, 1
    while sub and sub[0]:
        pivot = next((i for i, row in enumerate(sub) if row[0]), None)
        if pivot is None:
            sub = [row[1:] for row in sub]
            continue
        sub[0], sub[pivot] = sub[pivot], sub[0]
        p, tail = sub[0][0], sub[0][1:]
        for i in range(1, len(sub)):
            a = sub[i][0]
            new = []
            for x, y in zip(sub[i][1:], tail):
                q, rem = divmod(p * x - a * y, prev)
                assert rem == 0, (rows, p * x - a * y, prev)
                new.append(q)
            sub[i] = new
        sub = [row for row in sub[1:] if any(row)]
        prev = p
        r += 1
    return r


small_ints = st.integers(-3, 3)
small_fractions = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4))


@st.composite
def matrices(draw, entries=small_ints | small_fractions):
    """Random matrices, padded with duplicate, zero and combined rows so
    that rank deficiency is common."""
    ncols = draw(st.integers(0, 6))
    rows = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols), max_size=6))
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["duplicate", "zero", "combination"]))
        if kind == "zero" or not rows:
            rows.append([0] * ncols)
        elif kind == "duplicate":
            rows.append(list(draw(st.sampled_from(rows))))
        else:
            u, v = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            s, t = draw(entries), draw(entries)
            rows.append([s * x + t * y for x, y in zip(u, v)])
    return draw(st.permutations(rows))


def affine_rank(points):
    """Dimension of the affine hull of the given points."""
    if len(points) <= 1:
        return 0
    return rank([[x - b for x, b in zip(p, points[0])] for p in points[1:]])


def test_rank_examples():
    assert rank([]) == 0
    assert rank([[]]) == 0
    assert rank([[0, 0], [0, 0]]) == 0
    assert rank([[1, 2], [2, 4]]) == 1
    assert rank([[0, 1], [1, 0]]) == 2
    assert rank([[F(1, 2), F(1, 3)], [3, 2]]) == 1
    assert rank([[0, 0, 1], [0, 0, 2], [0, 1, 0]]) == 2
    # Leading entries 2 and 3: the third row is eliminated against both.
    assert rank([[2, 0, 1], [0, 3, 1], [1, 1, 0]]) == 3
    assert rank([[2, 0, 1], [0, 3, 1], [2, 3, 2]]) == 2
    # The third row, eliminated against the first, leads at column 1 and
    # is then eliminated against the second, to zero.
    assert rank([[1, 1, 0], [0, 1, 1], [1, 0, -1]]) == 2
    assert affine_rank([[1, 1], [2, 2], [3, 3]]) == 1


@given(matrices(entries=small_ints))
def test_rank_matches_oracle_on_integer_matrices(rows):
    assert rank(rows) == fraction_rank(rows) == checked_bareiss_rank(rows)


@given(matrices())
def test_rank_matches_oracle_on_rational_matrices(rows):
    assert rank(rows) == fraction_rank(rows) == checked_bareiss_rank(rows)


def test_rank_matches_oracle_on_vertex_differences():
    larger = [((5, 5, 5, 5), ()), ((6, 6, 6, 6), (2, 2)), ((5, 4, 3, 2, 1), ())]
    for shape in all_skew_shapes(5) + [SkewShape(Partition(nu), Partition(lam))
                                       for nu, lam in larger]:
        verts = [v.flatten() for v in PasmPolytope(shape).vertices()]
        diffs = [[x - b for x, b in zip(p, verts[0])] for p in verts[1:]]
        assert rank(diffs) == fraction_rank(diffs) == checked_bareiss_rank(diffs)
        assert rank(diffs) == shape.size, shape


@given(matrices(entries=small_ints))
@example([[2, 0, 1], [0, 3, 1], [1, 1, 0], [4, 0, 2], [0, 1, 0]])
def test_rank_leaves_sparse_input_rows_unchanged(rows):
    # Sparse int rows, as dimension() passes its vertex rows, some with a
    # content above 1: rank may keep some of them but must not change them.
    sparse = [{j: x for j, x in enumerate(row) if x} for row in rows]
    before = [dict(row) for row in sparse]
    r = rank(sparse)
    assert sparse == before
    assert r == fraction_rank(rows)


@settings(deadline=None)  # the first example imports sympy
@given(matrices())
def test_rank_matches_sympy(rows):
    sympy = pytest.importorskip("sympy")
    ncols = len(rows[0]) if rows else 0
    expected = sympy.Matrix(len(rows), ncols, [sympy.Rational(x) for r in rows for x in r]).rank()
    assert rank(rows) == expected


@st.composite
def square_int_matrices(draw):
    """Random square int matrices up to 6 x 6, often with a repeated or
    combined row, or a zero leading entry, so that singular matrices and
    row swaps are common."""
    n = draw(st.integers(0, 6))
    entries = small_ints | st.integers(-10**6, 10**6)
    rows = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n))
    if n >= 2 and draw(st.booleans()):
        u, v = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        s, t = draw(small_ints), draw(small_ints)
        rows[draw(st.integers(0, n - 1))] = [s * x + t * y for x, y in zip(u, v)]
    if n and draw(st.booleans()):
        rows[0][0] = 0
    return rows


@settings(deadline=None)  # the first example imports sympy
@given(square_int_matrices())
@example([])
@example([[0, 1], [1, 0]])  # a zero leading pivot forces a swap
@example([[0, 2, 1], [0, 1, 5], [3, 4, 4]])  # two swaps in a row
@example([[1, 2, 3], [2, 4, 6], [0, 1, 1]])  # singular: no pivot in column 2
@example([[0, 0], [0, 7]])  # singular: no pivot in column 1
def test_det_matches_sympy(rows):
    sympy = pytest.importorskip("sympy")
    assert det(rows) == sympy.Matrix(len(rows), len(rows), [x for r in rows for x in r]).det()


def test_det_refuses_a_matrix_that_is_not_square():
    with pytest.raises(ValueError, match="square"):
        det([[1, 2]])


@st.composite
def convex_instances(draw):
    """Point sets of 0/1/-1 vectors (many ties in the ratio test) with a
    target that is a random vector, a point of the set, or a rational
    convex or affine combination of some points."""
    dim = draw(st.integers(1, 5))
    vec = st.lists(st.integers(-1, 1), min_size=dim, max_size=dim)
    others = draw(st.lists(vec, min_size=1, max_size=7))
    kind = draw(st.sampled_from(["random", "member", "convex", "affine"]))
    if kind == "random":
        target = draw(st.lists(small_ints | small_fractions, min_size=dim, max_size=dim))
    elif kind == "member":
        target = list(draw(st.sampled_from(others)))
    else:
        lo = 0 if kind == "convex" else -2
        raw = draw(st.lists(st.integers(lo, 3), min_size=len(others), max_size=len(others)))
        if sum(raw) == 0:
            raw[0] += 1
        weights = [Fraction(w, sum(raw)) for w in raw]
        target = [sum(w * o[i] for w, o in zip(weights, others)) for i in range(dim)]
    return target, others


@given(convex_instances())
def test_convex_combination_matches_oracle(instance):
    target, others = instance
    assert convex_combination_exists(target, others) == fraction_convex_combination_exists(
        target, others
    )


def test_convex_combination_examples():
    square = [[0, 0], [1, 0], [0, 1], [1, 1]]
    assert convex_combination_exists([F(1, 2), F(1, 3)], square)
    assert not convex_combination_exists([F(3, 2), 0], square)
    assert convex_combination_exists([1, 1], square)
    assert not convex_combination_exists([0, 0], [])
    assert not convex_combination_exists([], [])
    with pytest.raises(ValueError):
        convex_combination_exists([0, 0], [[0]])
