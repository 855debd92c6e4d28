"""Exact linear algebra: rank and convex-combination feasibility.

Inputs may be ``int`` or ``fractions.Fraction``.  Each row is scaled by the
lcm of its denominators, which changes neither the rank nor the solution set
of a row of equations, and all elimination then runs on Python ints.  No
floating point is used.

``rank`` keeps an incremental Gauss-Jordan basis of sparse rows
(``{column: int}``), so its cost follows the nonzero entries, not the
dense shape: the vertex matrices of the polytope have at most 2m - 1
nonzeros each.  Every basis row is divided by its content (the gcd of its
entries) after each update, so it stays primitive.  The basis is reduced:
its pivot columns are zero in every other basis row, so each basis row is,
up to sign, the primitive integer vector of the row span that vanishes on
the other pivot columns.  By Cramer's rule its entries are bounded by
r x r minors of the scaled input, the same bound as for Bareiss
elimination.

The phase-1 simplex is fraction-free in the sense of Bareiss (Math. Comp.
22, 1968): every tableau entry is an integer minor of the scaled input, so
each division by the previous pivot is exact.
"""

from __future__ import annotations

from math import gcd, lcm
from typing import Sequence

from .matrices import Scalar


def _integer_row(row: Sequence[Scalar]) -> list[int]:
    """The row times the lcm of its denominators."""
    den = lcm(*(x.denominator for x in row))
    return [x.numerator * (den // x.denominator) for x in row]


def _primitive(row: dict[int, int]) -> dict[int, int]:
    """The sparse row divided by its content."""
    g = gcd(*row.values())
    return {j: x // g for j, x in row.items()} if g > 1 else row


def _reduce(row: dict[int, int], b: dict[int, int], c: int) -> dict[int, int]:
    """q * row - a * b, with q = b[c] and a = row[c] over their gcd, so column c
    vanishes; then divided by its content."""
    q, a = b[c], row[c]
    g = gcd(q, a)
    q, a = q // g, a // g
    out = dict(row) if q == 1 else {j: q * x for j, x in row.items()}
    for j, y in b.items():
        x = out.get(j, 0) - a * y
        if x:
            out[j] = x
        else:
            del out[j]
    return _primitive(out)


def _reduced_basis(rows: Sequence[Sequence[Scalar]]) -> dict[int, dict[int, int]]:
    """A reduced basis of the row span, as {pivot column: primitive sparse row}."""
    basis: dict[int, dict[int, int]] = {}
    for row in rows:
        vec = {j: x for j, x in enumerate(row) if x}
        den = lcm(*(x.denominator for x in vec.values()))
        vec = _primitive({j: x.numerator * (den // x.denominator) for j, x in vec.items()})
        # A basis row is zero on the other pivots, so eliminating one pivot
        # never brings back another: one pass over the row's support is enough.
        for c in [j for j in vec if j in basis]:
            vec = _reduce(vec, basis[c], c)
        if not vec:
            continue
        p = min(vec)
        for b in basis:
            if p in basis[b]:
                basis[b] = _reduce(basis[b], vec, p)
        basis[p] = vec
    return basis


def rank(rows: Sequence[Sequence[Scalar]]) -> int:
    """Rank of the row span, by sparse Gauss-Jordan elimination."""
    return len(_reduced_basis(rows))


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
