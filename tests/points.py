"""Rational points of a polytope, built in ``Fraction`` arithmetic from its
vertex matrices."""

from fractions import Fraction

from pasmpoly import Matrix


def convex_combination(weights, mats) -> Matrix:
    """Weighted sum of matrices; weights should be nonnegative and sum to 1."""
    if len(weights) != len(mats) or not mats:
        raise ValueError("need one weight per matrix")
    if sum(weights) != 1:
        raise ValueError("weights must sum to 1")
    m, n = mats[0].m, mats[0].n
    if any(M.m != m or M.n != n for M in mats):
        raise ValueError("mixed dimensions")
    return Matrix(
        [sum(Fraction(w) * M.rows[i][j] for w, M in zip(weights, mats)) for j in range(n)]
        for i in range(m)
    )
