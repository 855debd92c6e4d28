"""The cell poset of a skew shape, its order polytope, and counting tools.

Cells (i, j) are ordered componentwise: (i, j) <= (i', j') iff i <= i' and
j <= j'.  Elements are kept in row-major order, which is itself a linear
extension; that fact is exploited throughout.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterator, Mapping, Sequence

from .matrices import Scalar
from .shapes import Cell, SkewShape


class SkewPoset:
    """Poset on the cells of a skew shape, stored as elements plus covers."""

    __slots__ = ("elements", "covers", "_index", "_up", "_down")

    def __init__(self, elements: Sequence[Cell], covers: Sequence[tuple[int, int]]):
        self.elements: tuple[Cell, ...] = tuple(elements)
        self.covers: tuple[tuple[int, int], ...] = tuple(sorted(covers))
        self._index = {c: k for k, c in enumerate(self.elements)}
        if len(self._index) != len(self.elements):
            raise ValueError("duplicate poset elements")
        up: list[list[int]] = [[] for _ in self.elements]
        down: list[list[int]] = [[] for _ in self.elements]
        for a, b in self.covers:
            if not (0 <= a < len(self.elements) and 0 <= b < len(self.elements)):
                raise ValueError(f"cover ({a},{b}) out of range")
            if a >= b:
                raise ValueError("covers must go from smaller to larger row-major index")
            up[a].append(b)
            down[b].append(a)
        self._up = tuple(tuple(v) for v in up)
        self._down = tuple(tuple(v) for v in down)

    def __len__(self) -> int:
        return len(self.elements)

    def index(self, cell: Cell) -> int:
        return self._index[cell]

    def upper_covers(self, k: int) -> tuple[int, ...]:
        return self._up[k]

    def lower_covers(self, k: int) -> tuple[int, ...]:
        return self._down[k]

    def minimal_indices(self) -> tuple[int, ...]:
        return tuple(k for k in range(len(self.elements)) if not self._down[k])

    def maximal_indices(self) -> tuple[int, ...]:
        return tuple(k for k in range(len(self.elements)) if not self._up[k])

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SkewPoset)
            and self.elements == other.elements
            and self.covers == other.covers
        )

    def __hash__(self) -> int:
        return hash((self.elements, self.covers))

    def __repr__(self) -> str:
        return f"SkewPoset({len(self.elements)} elements, {len(self.covers)} covers)"

    def to_json(self) -> dict:
        return {
            "elements": [list(c) for c in self.elements],
            "covers": [list(c) for c in self.covers],
        }

    @classmethod
    def from_json(cls, data: dict) -> "SkewPoset":
        return cls(
            [tuple(c) for c in data["elements"]],
            [tuple(c) for c in data["covers"]],
        )


def build_poset(shape: SkewShape) -> SkewPoset:
    """Componentwise-order poset on the cells of the shape.

    Covers are the east and south neighbor pairs that both lie in the shape.
    """
    elems = shape.cells()
    present = set(elems)
    index = {c: k for k, c in enumerate(elems)}
    covers = []
    for (i, j) in elems:
        for nxt in ((i, j + 1), (i + 1, j)):
            if nxt in present:
                covers.append((index[(i, j)], index[nxt]))
    return SkewPoset(elems, covers)


def in_order_polytope(P: SkewPoset, f: Mapping[Cell, Scalar]) -> bool:
    """True iff f maps every element into [0,1] monotonically along covers."""
    try:
        vals = list(map(f.__getitem__, P.elements))
    except KeyError as exc:
        raise ValueError(f"point is missing a value for element {exc.args[0]}") from None
    if vals and (min(vals) < 0 or max(vals) > 1):
        return False
    return all(vals[a] <= vals[b] for a, b in P.covers)


def _skew_rows(P: SkewPoset) -> list[tuple[int, int, bool]]:
    """The rows of the skew shape whose cell poset P is, top to bottom:
    (lam_i, nu_i, joined) for each row i that holds cells, where joined
    tells whether row i + 1 holds cells too.

    Checks in O(|P|) that P is what build_poset makes of a skew shape: its
    elements run through each row's cells lam_i < j <= nu_i in row-major
    order, the ends lam_i and nu_i of adjacent rows weakly decrease, and
    its covers are exactly the east and south neighbor pairs.  Raises
    ValueError otherwise, since the row walk of _ideals_with_maxima would
    count a different poset.
    """
    rows: list[list[int]] = []  # [i, lam_i, nu_i, index of the row's first cell]
    for k, (i, j) in enumerate(P.elements):
        if rows and rows[-1][0] == i and rows[-1][2] == j - 1:
            rows[-1][2] = j
        elif not rows or rows[-1][0] < i:
            rows.append([i, j - 1, j, k])
        else:
            raise ValueError("poset elements are not the rows of a skew shape in row-major order")
    shape = []
    for r, (i, lam, nu, start) in enumerate(rows):
        below = rows[r + 1] if r + 1 < len(rows) and rows[r + 1][0] == i + 1 else None
        if below is not None and (below[1] > lam or below[2] > nu):
            raise ValueError("poset elements are not the cells of a skew shape")
        for j in range(lam + 1, nu + 1):
            east = (start + j - lam,) if j < nu else ()
            south = ((below[3] + j - below[1] - 1,)
                     if below is not None and below[1] < j <= below[2] else ())
            if P.upper_covers(start + j - lam - 1) != east + south:
                raise ValueError("poset covers are not the east and south neighbors of its cells")
        shape.append((lam, nu, below is not None))
    return shape


def _ideals_with_maxima(P: SkewPoset) -> tuple[list[int], list[int]]:
    """The down-closed subsets of P and the maximal elements of each, as
    bitmasks over elements, in increasing bitmask order: the list starts
    with the empty ideal and ends with all of P, and every ideal comes
    after the ideals it contains.

    The ideals are the cells of the partitions mu between lam and nu, and
    are walked by their parts from the last row up, one list comprehension
    per row.  Row i's part q runs from the larger of lam_i and the part p
    of the row below (when that row holds cells) up to nu_i, and its cell
    (i, q) is maximal exactly when q exceeds both.  The additions (prefix
    bits, maximal bit, q) of a row are built once per start value.  Since
    later rows hold the higher bits, the walk lists the ideals in
    increasing order.
    """
    walk = [(0, 0, 0)]  # (ideal, maxima, part of the row below)
    parts: Sequence[int] = (0,)
    shift = len(P)
    for lam, nu, joined in reversed(_skew_rows(P)):
        shift -= nu - lam
        start = {p: max(lam, p) if joined else lam for p in parts}
        additions = {s: [((1 << q - lam) - 1 << shift, 1 << shift + q - lam - 1 if q > s else 0, q)
                         for q in range(s, nu + 1)] for s in set(start.values())}
        steps = {p: additions[s] for p, s in start.items()}
        walk = [(I | bits, M | top, q) for I, M, p in walk for bits, top, q in steps[p]]
        parts = range(lam, nu + 1)
    return [I for I, _, _ in walk], [M for _, M, _ in walk]


def _ideal_lattice(P: SkewPoset) -> tuple[list[int], list[list[tuple[int, int]]]]:
    """The lattice J(P) of down-closed subsets, as bitmasks over elements.

    Returns ``(ideals, covers)``, the ideals as listed by
    :func:`_ideals_with_maxima`.  ``covers[x]`` lists the pairs ``(i, j)``
    with ``ideals[j] == ideals[i] - {x}`` and x maximal in ``ideals[i]``, in
    increasing i.  They are read off each ideal's maxima, one pair per
    cover of the lattice.
    """
    ideals, maxima = _ideals_with_maxima(P)
    index = {I: k for k, I in enumerate(ideals)}
    covers: list[list[tuple[int, int]]] = [[] for _ in range(len(P))]
    for i, (I, M) in enumerate(zip(ideals, maxima)):
        while M:
            low = M & -M
            covers[low.bit_length() - 1].append((i, index[I ^ low]))
            M ^= low
    return ideals, covers


def count_linear_extensions(P: SkewPoset) -> int:
    """Number of order-preserving bijections onto {1,...,|P|}.

    Counts the saturated chains of J(P) from the empty ideal to P, one
    added maximal element per step: h(I) is the sum of h(I - {x}) over the
    maxima x of I, and each I - {x} is listed before I.
    """
    ideals, maxima = _ideals_with_maxima(P)
    h = {0: 1}
    for k in range(1, len(ideals)):
        I, M, total = ideals[k], maxima[k], 0
        while M:
            low = M & -M
            total += h[I ^ low]
            M ^= low
        h[I] = total
    return h[ideals[-1]]


def enumerate_order_preserving_maps(P: SkewPoset, t: int) -> Iterator[tuple[int, ...]]:
    """All order-preserving maps into {1,...,t}, as value tuples over elements,
    in lexicographic order.

    Relies on the row-major element order being a linear extension, so each
    element's lower covers are assigned before it.  The search is a
    depth-first walk in one frame: values[k] holds the iterator over the
    values still to try for element k, from the largest value of its lower
    covers up to t.
    """
    if t < 1:
        raise ValueError("the target chain must have at least one element")
    d = len(P)
    if d == 0:
        yield ()
        return
    down = [P.lower_covers(k) for k in range(d)]
    vals = [0] * d
    values = [iter(range(1, t + 1))] + [iter(())] * (d - 1)
    last, k = d - 1, 0
    while k >= 0:
        for vals[k] in values[k]:
            if k == last:
                yield tuple(vals)
            else:
                k += 1
                lo = 1
                for p in down[k]:
                    if vals[p] > lo:
                        lo = vals[p]
                values[k] = iter(range(lo, t + 1))
                break
        else:
            k -= 1


def order_polynomial_values(P: SkewPoset, t_max: int) -> list[int]:
    """[Omega(P, 1), ..., Omega(P, t_max)]: order-preserving maps into t-chains.

    A map into {1,...,t} is a multichain of t - 1 ideals between the empty
    ideal and P, so Omega(P, t) = zeta^t(empty, P) on J(P) (Stanley, "Two
    poset polytopes", 1986).  Each zeta pass sums g over all sub-ideals one
    element at a time, in row-major order: adding g(I - {x}) to g(I) for
    every cover pair of x.
    """
    if t_max < 0:
        raise ValueError("t_max must be nonnegative")
    ideals, covers = _ideal_lattice(P)
    g = [1] + [0] * (len(ideals) - 1)
    values = []
    for _ in range(t_max):
        for pairs in covers:
            for i, j in pairs:
                g[i] += g[j]
        values.append(g[-1])
    return values


def order_polynomial_value(P: SkewPoset, t: int) -> int:
    """Number of order-preserving maps from P into a t-chain."""
    if t < 1:
        raise ValueError("order polynomial is defined for positive t")
    return order_polynomial_values(P, t)[-1]


def enumerate_filters(P: SkewPoset) -> list[frozenset[Cell]]:
    """All up-closed subsets; indicator functions of these are exactly the
    0/1 points of the order polytope."""
    filters = [frozenset(c for k, c in enumerate(P.elements) if not I >> k & 1)
               for I in _ideals_with_maxima(P)[0]]
    return sorted(filters, key=lambda s: (len(s), sorted(s)))


class UniPoly:
    """Univariate polynomial with exact coefficients, constant term first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[Scalar] = ()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[Fraction, ...] = tuple(cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def leading_coefficient(self) -> Fraction:
        return self.coeffs[-1] if self.coeffs else Fraction(0)

    def __call__(self, t: Scalar) -> Scalar:
        acc: Scalar = 0
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc

    def __eq__(self, other: object) -> bool:
        return isinstance(other, UniPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"UniPoly({[str(c) for c in self.coeffs]})"

    def to_json(self) -> list[str]:
        return [f"{c.numerator}/{c.denominator}" if c.denominator != 1 else str(c.numerator)
                for c in self.coeffs]


def interpolate_polynomial(values: Sequence[tuple[Scalar, Scalar]]) -> UniPoly:
    """Unique interpolating polynomial through the given (t, value) samples.

    Runs on ints: the abscissae are scaled by the lcm X of their
    denominators and the values by the lcm Y of theirs, which interpolates
    q(s) = Y p(s / X).  Newton's divided differences of q run in place,
    level k over the common denominator D_k = D_{k-1} lcm_i(x_i - x_{i-k}),
    so each level multiplies by an exact quotient and divides nothing.
    Horner's rule expands the Newton form sum_k c_k (s - x_0)...(s - x_{k-1})
    over D_d, and the coefficient a_j / D_d of s^j gives p's coefficient
    a_j X^j / (D_d Y), one Fraction each.  Both passes take O(n^2) int
    operations.
    """
    xs = [Fraction(x) for x, _ in values]
    ys = [Fraction(y) for _, y in values]
    if len(set(xs)) != len(xs):
        raise ValueError("duplicate abscissae")
    xden = lcm(*(x.denominator for x in xs))
    yden = lcm(*(y.denominator for y in ys))
    xs = [x.numerator * (xden // x.denominator) for x in xs]
    cs = [y.numerator * (yden // y.denominator) for y in ys]
    n = len(xs)
    level = [1] * n  # level[k] = D_k / D_{k-1}
    for k in range(1, n):
        spans = [xs[i] - xs[i - k] for i in range(k, n)]
        level[k] = lcm(*spans)
        for i in range(n - 1, k - 1, -1):
            cs[i] = (cs[i] - cs[i - 1]) * (level[k] // spans[i - k])
    coeffs: list[int] = []
    scale = 1  # D_d / D_k
    for k in range(n - 1, -1, -1):  # coeffs * (s - x_k) + c_k D_d
        coeffs = [a - xs[k] * b for a, b in zip([0, *coeffs], [*coeffs, 0])]
        coeffs[0] += cs[k] * scale
        scale *= level[k]
    den = scale * yden
    return UniPoly([Fraction(a * xden ** j, den) for j, a in enumerate(coeffs)])
