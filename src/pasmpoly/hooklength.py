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
:func:`excited_diagrams` lists them by a breadth-first search over cell
sets, and serves as that transfer's independent check.
"""

from __future__ import annotations

from itertools import combinations_with_replacement
from math import factorial, prod

from .shapes import Cell, Partition, contains


def hooks(nu: Partition) -> dict[Cell, int]:
    """Hook number arm + leg + 1 for every cell of nu."""
    conj = nu.conjugate()
    return {
        (i, j): nu.part(i) - j + conj.part(j) - i + 1
        for i in range(1, len(nu) + 1)
        for j in range(1, nu.part(i) + 1)
    }


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
    rows = nu.parts
    weight = {(0,) * lam.part(1): 1}
    for i, m in enumerate(lam, 1):
        r = 0
        while i + r < len(rows) and rows[i + r] > m + r:
            r += 1
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
    excited-diagram hook sum.  Exact; raises if the sum is not integral."""
    if not contains(lam, nu):
        raise ValueError(f"{lam!r} is not contained in {nu!r}")
    h = hooks(nu)
    numerator = factorial(nu.size - lam.size) * _hook_sum(nu, lam, h)
    denominator = prod(h.values())
    quotient, remainder = divmod(numerator, denominator)
    if remainder:
        raise ArithmeticError(f"hook sum produced non-integer {numerator}/{denominator}")
    return quotient
