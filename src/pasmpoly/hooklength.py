"""Hook numbers, excited diagrams, and skew standard tableau counting.

The count of linear extensions of a skew-shape cell poset is Naruse's
excited-diagram hook sum

    |nu/lam|! * sum over excited diagrams D of prod over cells of nu not
    in D of 1/h(cell).

Since prod over cells not in D of 1/h equals prod over D of h divided by
prod over nu of h, it is evaluated in integers as

    |nu/lam|! * (sum over D of prod over c in D of h(c)) // (prod over c in nu of h(c))

and the division is checked to leave no remainder.  :func:`naruse_count`
never lists the diagrams: an excited diagram is a flagged tableau of shape
lam (Kreiman 2005; Morales, Pak and Panova, "Hook formulas for skew shapes
I", 2018, Prop. 3.6), so the hook sum is a transfer over the rows of lam.
The diagrams of lam' in nu' are the transposes of those of lam in nu, with
the same hook products, so the transfer may run on either orientation.
:func:`naruse_count` counts the states of both from the parts alone and
runs the one with fewer, keeping (nu, lam) on a tie: on
20^19/(12,9,9,5,3,1) the conjugates have 60 229 states against 478 088,
and ``volume`` there takes 0.23 s of CPU and 23 MB instead of 3.1 s and
101 MB (a fresh process on a 2-CPU x86-64 host, Python 3.11).
:func:`excited_diagrams` lists the diagrams by a breadth-first
search over cell sets, and serves as that transfer's independent check.
"""

from __future__ import annotations

from itertools import combinations_with_replacement
from math import comb, factorial, prod

from .shapes import Cell, Partition, _conjugate, contains


def hooks(nu: Partition) -> dict[Cell, int]:
    """Hook number arm + leg + 1 for every cell of nu."""
    cols = _conjugate(nu.parts)
    return {(i, j): p - j + cols[j - 1] - i + 1
            for i, p in enumerate(nu.parts, 1) for j in range(1, p + 1)}


def excited_diagrams(nu: Partition, lam: Partition) -> list[frozenset[Cell]]:
    """All cell sets reachable from the diagram of lam by excited moves.

    A cell (i,j) of the diagram moves to (i+1,j+1) when none of (i,j+1),
    (i+1,j), (i+1,j+1) is occupied and (i+1,j+1) lies in nu; the last
    condition implies the other two cells lie in nu as well.  The start
    diagram is included; diagrams are found breadth first and sorted by
    their sorted cell lists.
    """
    if not contains(lam, nu):
        raise ValueError(f"{lam!r} is not contained in {nu!r}")
    cells = nu.diagram()
    start = lam.diagram()
    seen, frontier = {start}, [start]
    while frontier:
        reached = []
        for diagram in frontier:
            for i, j in diagram:
                target = (i + 1, j + 1)
                if (target in cells and target not in diagram
                        and (i, j + 1) not in diagram and (i + 1, j) not in diagram):
                    moved = diagram - {(i, j)} | {target}
                    if moved not in seen:
                        seen.add(moved)
                        reached.append(moved)
        frontier = reached
    return sorted(seen, key=sorted)


def _reach(rows: tuple[int, ...], i: int, m: int) -> int:
    """How far the last cell (i, m) of a row of lam can slide down its
    diagonal and stay in the partition whose parts are rows."""
    r = 0
    while i + r < len(rows) and rows[i + r] > m + r:
        r += 1
    return r


def _states(rows: tuple[int, ...], inner: tuple[int, ...]) -> int:
    """The number of states :func:`_hook_sum` lists on the partitions with
    these parts: row i of the inner one has C(r + lam_i, lam_i), its shift
    vectors up to its reach r in the outer one."""
    return sum(comb(_reach(rows, i, m) + m, m) for i, m in enumerate(inner, 1))


def _hook_sum(nu: Partition, lam: Partition, h: dict[Cell, int]) -> int:
    """Sum over the excited diagrams D of lam in nu of prod over c in D of h(c).

    A diagram is a shift array k on the cells of lam: cell (i,j) lies at
    (i+k, j+k).  The arrays are exactly those weakly increasing along rows
    and down columns that keep every cell in nu, and a row stays in nu iff
    its last cell does.  The states of row i are its weakly increasing
    shift vectors up to the reach r of its last cell down its diagonal, in
    lexicographic order.  A state's weight is the hook product at its
    cells times the total weight of the previous row's states whose first
    lam_i shifts lie componentwise below it.  That dominance sum is a prefix
    sum taken one coordinate at a time, last coordinate first, so that
    every partial vector it reads is itself weakly increasing.  Row 1 reads
    one all-zero state of weight 1, which lies below each of its states.
    """
    weight = {(0,) * lam.part(1): 1}
    for i, m in enumerate(lam, 1):
        r = _reach(nu.parts, i, m)
        states = list(combinations_with_replacement(range(r + 1), m))
        below = dict.fromkeys(states, 0)
        for s, w in weight.items():
            t = s[:m]
            if t in below:
                below[t] += w
        for c in range(m - 1, -1, -1):
            for s in states:
                k = s[c]
                if k > (s[c - 1] if c else 0):
                    below[s] += below[s[:c] + (k - 1,) + s[c + 1:]]
        weight = {s: below[s] * prod([h[i + k, j + k] for j, k in enumerate(s, 1)])
                  for s in states}
    return sum(weight.values())


def naruse_count(nu: Partition, lam: Partition) -> int:
    """Number of linear extensions of the nu/lam cell poset, via the
    excited-diagram hook sum, run on whichever of (nu, lam) and (nu', lam')
    has fewer transfer states.  Exact; raises if the sum is not integral."""
    if not contains(lam, nu):
        raise ValueError(f"{lam!r} is not contained in {nu!r}")
    if lam:
        cols, inner = _conjugate(nu.parts), _conjugate(lam.parts)
        if _states(cols, inner) < _states(nu.parts, lam.parts):
            nu, lam = Partition(cols), Partition(inner)
    h = hooks(nu)
    numerator = factorial(nu.size - lam.size) * _hook_sum(nu, lam, h)
    denominator = prod(h.values())
    quotient, remainder = divmod(numerator, denominator)
    if remainder:
        raise ArithmeticError(f"hook sum produced non-integer {numerator}/{denominator}")
    return quotient
