"""Exact linear algebra: rank, determinant and convex-combination feasibility.

Inputs may be ``int`` or ``fractions.Fraction``.  Each row is scaled by the
lcm of its denominators, which changes neither the rank nor the solution set
of a row of equations, and all elimination then runs on Python ints.  No
floating point is used.

``rank`` brings sparse rows (``{column: int}``) to row echelon form, so
its cost follows the nonzero entries, not the dense shape.  It takes dense
rows, which it sparsifies, or sparse int rows as they are.  Its one caller
in the package, the polytope's dimension, hands it the first vertex row
and one difference of consecutive vertex rows per step key (k, mu_k),
d + 1 sparse rows in all.  A row whose leading column p leads no basis
row joins the basis.  Otherwise it becomes b[p] * row - row[p] * b, for
the basis row b that leads at p, which is zero at p; it is divided by its
content (the gcd of its entries) and the step repeats on its new leading
column.  A row that reaches zero lies in the span of the basis, and the
rank is the number of basis rows.

``det`` and the phase-1 simplex are fraction-free in the sense of Bareiss
(Math. Comp. 22, 1968): every entry they hold is an integer minor of the
input, so each division by the previous pivot is exact.  ``det`` takes a
square int matrix; the counting formulas of ``skewposet`` (Aitken's e(P)
and the Gessel-Viennot order polynomial) are its callers.
"""

from __future__ import annotations

from math import gcd, lcm
from typing import Iterable, Sequence

from .matrices import Scalar

# A dense row of int or Fraction entries, or a sparse int row {column: nonzero int}.
Row = Sequence[Scalar] | dict[int, int]


def _integer_row(row: Sequence[Scalar]) -> list[int]:
    """The row times the lcm of its denominators."""
    den = lcm(*(x.denominator for x in row))
    return [x.numerator * (den // x.denominator) for x in row]


def _primitive(row: dict[int, int]) -> dict[int, int]:
    """The sparse row divided by its content."""
    g = gcd(*row.values())
    return {j: x // g for j, x in row.items()} if g > 1 else row


def rank(rows: Iterable[Row]) -> int:
    """Rank of the row span, by sparse fraction-free row echelon elimination.
    A dense row is sparsified first; a sparse int row is used as it is and
    is not changed."""
    basis: dict[int, dict[int, int]] = {}
    for row in rows:
        if not isinstance(row, dict):
            row = {j: x for j, x in enumerate(_integer_row(row)) if x}
        while row and (p := min(row)) in basis:
            b = basis[p]
            q, a = b[p], row[p]
            out = {j: q * x for j, x in row.items()}
            for j, y in b.items():
                x = out.get(j, 0) - a * y
                if x:
                    out[j] = x
                else:
                    del out[j]
            row = _primitive(out)
        if row:
            basis[p] = row
    return len(basis)


def det(M: Sequence[Sequence[int]]) -> int:
    """Determinant of a square int matrix, by Bareiss elimination.

    After step k each entry below row k is a (k + 1) x (k + 1) minor, so the
    division by the previous pivot is exact.  A zero pivot is swapped with
    the first row below it that is nonzero in its column, which flips the
    sign; when there is none the matrix is singular.  The 0 x 0 matrix has
    determinant 1.
    """
    a = [list(row) for row in M]
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("det needs a square matrix")
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        prow = a[k]
        p = prow[k]
        for i in range(k + 1, n):
            f = a[i][k]
            a[i] = [(p * x - f * y) // prev for x, y in zip(a[i], prow)]
        prev = p
    return sign * a[-1][-1] if n else 1


def _phase1_simplex(tab: list[list[int]]) -> bool:
    """Feasibility of {x >= 0 : A x = b}, given the integer rows [A | b], via a
    phase-1 simplex with Bland's rule.

    The tableau is kept as integers over one common denominator D > 0 (the
    last pivot): the rational tableau is ``tab / D`` and the reduced costs
    are ``cost / D``.  Signs and ratios are therefore read off the integers.
    """
    tab = [[-x for x in row] if row[-1] < 0 else row for row in tab]
    m, n = len(tab), len(tab[0]) - 1
    # One artificial per row starts basic.  Entering candidates are original
    # variables only: an artificial that leaves the basis is never
    # re-admitted (its column may be dropped without changing feasibility of
    # the phase-1 optimum), so the tableau holds no artificial columns, only
    # the original ones and the right-hand side in column n.
    basis = [n + i for i in range(m)]
    # Objective: minimize the sum of artificials; reduced costs of z = sum of
    # artificial rows (artificials are basic with cost 1).
    cost = [sum(col) for col in zip(*tab)]
    D = 1
    while True:
        entering = next(
            (k for k in range(n) if k not in basis and cost[k] > 0), None
        )
        if entering is None:
            break
        # Ratio test b_i / a_i over a_i > 0 by cross-multiplication, Bland's
        # tie-break on basis variable index.  Some a_i > 0 always exists: the
        # phase-1 objective is bounded below by 0.
        leaving = None
        for i in range(m):
            a = tab[i][entering]
            if a > 0:
                if leaving is None:
                    leaving = i
                    continue
                lhs = tab[i][n] * tab[leaving][entering]
                rhs = tab[leaving][n] * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leaving]):
                    leaving = i
        prow = tab[leaving]
        p = prow[entering]
        for i in range(m):
            if i != leaving:
                f = tab[i][entering]
                tab[i] = [(p * x - f * y) // D for x, y in zip(tab[i], prow)]
        f = cost[entering]
        cost = [(p * x - f * y) // D for x, y in zip(cost, prow)]
        D = p
        basis[leaving] = entering
    return cost[n] == 0


def convex_combination_exists(
    target: Sequence[Scalar], others: Sequence[Sequence[Scalar]]
) -> bool:
    """True iff target = sum c_k * others[k] with c >= 0 and sum c = 1."""
    dim = len(target)
    if any(len(o) != dim for o in others):
        raise ValueError("mixed vector dimensions")
    rows = [_integer_row([o[i] for o in others] + [target[i]]) for i in range(dim)]
    # A coordinate that is zero in the target and every point constrains
    # nothing; its row would stay zero and never enter the ratio test.
    rows = [row for row in rows if any(row)]
    rows.append([1] * (len(others) + 1))
    return _phase1_simplex(rows)
