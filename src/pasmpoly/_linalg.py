"""Exact linear algebra: rank and convex-combination feasibility.

Inputs may be ``int`` or ``fractions.Fraction``.  Each row is scaled by the
lcm of its denominators, which changes neither the rank nor the solution set
of a row of equations, and all elimination then runs on Python ints.  Both
kernels are fraction-free in the sense of Bareiss (Math. Comp. 22, 1968):
every intermediate entry is an integer minor of the scaled input, so each
division by the previous pivot is exact.  No floating point is used.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence

Scalar = int | Fraction


def _integer_row(row: Sequence[Scalar]) -> list[int]:
    """The row times the lcm of its denominators."""
    den = lcm(*(x.denominator for x in row))
    return [x.numerator * (den // x.denominator) for x in row]


def rank(rows: Sequence[Sequence[Scalar]]) -> int:
    """Rank of the row span, by Bareiss fraction-free elimination."""
    # The rows still to be eliminated, cut to the columns not yet passed.
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
            sub[i] = [(p * x - a * y) // prev for x, y in zip(sub[i][1:], tail)]
        sub = [row for row in sub[1:] if any(row)]  # a zero row stays zero
        prev = p
        r += 1
    return r


def affine_rank(points: Sequence[Sequence[Scalar]]) -> int:
    """Dimension of the affine hull of the given points."""
    if len(points) <= 1:
        return 0
    base = points[0]
    return rank([[x - b for x, b in zip(p, base)] for p in points[1:]])


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
        # tie-break on basis variable index.
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
        if leaving is None:
            # Unbounded phase-1 objective cannot happen (bounded below by 0);
            # treat defensively as infeasible.
            return False
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
    if not others:
        return False
    dim = len(target)
    if any(len(o) != dim for o in others):
        raise ValueError("mixed vector dimensions")
    rows = [_integer_row([o[i] for o in others] + [target[i]]) for i in range(dim)]
    # A coordinate that is zero in the target and every point constrains
    # nothing; its row would stay zero and never enter the ratio test.
    rows = [row for row in rows if any(row)]
    rows.append([1] * (len(others) + 1))
    return _phase1_simplex(rows)
