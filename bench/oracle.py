"""Independent exact values for the benchmark's output checks.

Everything here is derived from the interval [lam, nu] of Young's lattice,
enumerated by this module itself; none of it calls into ``pasmpoly``.  The
interval is the lattice of order ideals of the nu/lam cell poset, so

* the vertex count is the interval size;
* L(t), the number of lattice points of the t-th dilate (= order-preserving
  maps of the cells into {0, ..., t}), counts multichains
  lam <= mu_1 <= ... <= mu_t <= nu;
* e(P), the normalized volume, counts saturated chains from lam to nu;
* the dual flow graph has one edge per Hasse edge of P with sentinels, and
  its cycle rank E - V + 1 is |nu/lam|.

Partitions are tuples padded with zeros to ``len(nu)`` parts.
"""

from __future__ import annotations

from fractions import Fraction

Shape = tuple[tuple[int, ...], tuple[int, ...]]  # (nu, lam)


def pad(parts, length: int) -> tuple[int, ...]:
    return tuple(parts) + (0,) * (length - len(parts))


def interval(nu, lam=()) -> list[tuple[int, ...]]:
    """All partitions mu with lam <= mu <= nu, padded to len(nu) parts."""
    r = len(nu)
    lam = pad(lam, r)
    out: list[tuple[int, ...]] = []

    def rec(prefix: list[int]) -> None:
        k = len(prefix)
        if k == r:
            out.append(tuple(prefix))
            return
        hi = nu[k] if k == 0 else min(nu[k], prefix[-1])
        for p in range(lam[k], hi + 1):
            prefix.append(p)
            rec(prefix)
            prefix.pop()

    rec([])
    return out


def skew_size(nu, lam=()) -> int:
    return sum(nu) - sum(lam)


def dilate_counts(nu, lam, t_max: int) -> list[int]:
    """[L(0), ..., L(t_max)] by repeated zeta transforms over the interval.

    g_0 is the indicator of lam and g_k(mu) = sum of g_{k-1} over mu' <= mu;
    then L(t) = g_{t+1}(nu).  The sum over mu' <= mu is taken one coordinate
    at a time, first part first: the sum then runs over paths from mu that
    lower the last part first, and every tuple on such a path is a
    partition inside the interval.
    """
    r = len(nu)
    lam = pad(lam, r)
    members = interval(nu, lam)
    orders = [sorted(members, key=lambda mu, k=k: mu[k]) for k in range(r)]
    g = {mu: int(mu == lam) for mu in members}
    values = []
    for _ in range(t_max + 1):
        for k in range(r):
            for mu in orders[k]:
                if mu[k] > lam[k]:
                    below = mu[:k] + (mu[k] - 1,) + mu[k + 1:]
                    if below in g:
                        g[mu] += g[below]
        values.append(g[tuple(nu)])
    return values


def linear_extensions(nu, lam=()) -> int:
    """e(P): saturated chains from lam to nu, one added cell per step."""
    r = len(nu)
    members = sorted(interval(nu, lam), key=sum)
    chains: dict[tuple[int, ...], int] = {}
    for mu in members:
        below = [mu[:k] + (mu[k] - 1,) + mu[k + 1:] for k in range(r)]
        chains[mu] = sum(chains.get(b, 0) for b in below) or int(mu == members[0])
    return chains[tuple(nu)]


def flow_edge_count(nu, lam=()) -> int:
    """Edges of the dual flow graph: one per Hasse edge of P, counting the
    edges from the bottom sentinel to each minimal cell and from each
    maximal cell to the top sentinel."""
    r = len(nu)
    lam = pad(lam, r)
    cells = {(i, j) for i in range(r) for j in range(lam[i], nu[i])}
    total = 0
    for i, j in cells:
        ups = ((i, j + 1) in cells) + ((i + 1, j) in cells)
        total += ups + (ups == 0)
        total += (i, j - 1) not in cells and (i - 1, j) not in cells
    return total


def profile_matrix(mu, m: int, n: int) -> list[list[int]]:
    """The profile matrix of mu in an m x n box: 1 at (1, mu_1 + 1), and for
    every descent mu_k > mu_{k+1} a 1 at (k+1, mu_{k+1} + 1) and a -1 at
    (k+1, mu_k + 1), 1-based."""
    mu = pad(mu, m)
    rows = [[0] * n for _ in range(m)]
    rows[0][mu[0]] = 1
    for k in range(m - 1):
        if mu[k] > mu[k + 1]:
            rows[k + 1][mu[k + 1]] = 1
            rows[k + 1][mu[k]] = -1
    return rows


def is_asm(rows) -> bool:
    """Square, entries in {-1, 0, 1}, every row and column a sequence whose
    nonzeros alternate starting and ending with 1."""
    n = len(rows)
    if any(len(row) != n for row in rows):
        return False
    lines = [list(row) for row in rows] + [[rows[i][j] for i in range(n)] for j in range(n)]
    for line in lines:
        s = 0
        for x in line:
            if x not in (-1, 0, 1):
                return False
            s += x
            if s not in (0, 1):
                return False
        if s != 1:
            return False
    return True


def evaluate(coeffs: list[Fraction], t: int) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc
