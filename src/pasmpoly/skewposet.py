"""The cell poset of a skew shape, its order polytope, and counting tools.

Cells (i, j) are ordered componentwise: (i, j) <= (i', j') iff i <= i' and
j <= j'.  Elements are kept in row-major order, which is itself a linear
extension; that fact is exploited throughout.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
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
    vals = []
    for c in P.elements:
        if c not in f:
            raise ValueError(f"point is missing a value for element {c}")
        vals.append(f[c])
    if any(v < 0 or v > 1 for v in vals):
        return False
    return all(vals[a] <= vals[b] for a, b in P.covers)


def _ideal_lattice(P: SkewPoset) -> tuple[list[int], list[list[tuple[int, int]]]]:
    """The lattice J(P) of down-closed subsets, as bitmasks over elements.

    Returns ``(ideals, covers)``.  ``covers[x]`` lists the pairs ``(i, j)``
    with ``ideals[j] == ideals[i] - {x}`` and x maximal in ``ideals[i]``, in
    increasing i; every lower cover comes before its ideal, so ``ideals[0]``
    is empty and ``ideals[-1]`` is all of P.  Ideals are grown one element
    at a time in row-major order: since that order is a linear extension,
    an ideal's largest element is maximal in it and removing it leaves an
    ideal that is already listed.
    """
    d = len(P)
    ideals = [0]
    for x in range(d):
        below = sum(1 << a for a in P.lower_covers(x))
        ideals += [I | 1 << x for I in ideals if I & below == below]
    index = {I: k for k, I in enumerate(ideals)}
    covers = []
    for x in range(d):
        bit = 1 << x
        above = sum(1 << b for b in P.upper_covers(x))
        covers.append([(i, index[I ^ bit]) for i, I in enumerate(ideals)
                       if I & bit and not I & above])
    return ideals, covers


def count_linear_extensions(P: SkewPoset) -> int:
    """Number of order-preserving bijections onto {1,...,|P|}.

    Counts the saturated chains of J(P) from the empty ideal to P, one
    added maximal element per step: h(I) is the sum of h(I - {x}).
    """
    ideals, covers = _ideal_lattice(P)
    h = [1] + [0] * (len(ideals) - 1)
    for i, j in sorted(pair for pairs in covers for pair in pairs):
        h[i] += h[j]
    return h[-1]


def enumerate_order_preserving_maps(P: SkewPoset, t: int) -> Iterator[tuple[int, ...]]:
    """All order-preserving maps into {1,...,t}, as value tuples over elements.

    Relies on the row-major element order being a linear extension, so each
    element's lower covers are assigned before it.
    """
    if t < 1:
        raise ValueError("the target chain must have at least one element")
    d = len(P)
    vals = [0] * d

    def rec(k: int) -> Iterator[tuple[int, ...]]:
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
    ideals, _ = _ideal_lattice(P)
    filters = [frozenset(c for k, c in enumerate(P.elements) if not I >> k & 1)
               for I in ideals]
    return sorted(filters, key=lambda s: (len(s), sorted(s)))


def filter_indicator(P: SkewPoset, filt: frozenset[Cell]) -> dict[Cell, int]:
    return {c: (1 if c in filt else 0) for c in P.elements}


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

    Newton's divided differences give the coefficients c_k of the Newton
    form sum_k c_k (t - x_0)...(t - x_{k-1}); Horner's rule on that form
    expands it into monomials.  Both take O(n^2) exact operations.
    """
    xs = [Fraction(x) for x, _ in values]
    cs = [Fraction(y) for _, y in values]
    if len(set(xs)) != len(xs):
        raise ValueError("duplicate abscissae")
    for k in range(1, len(xs)):
        for i in range(len(xs) - 1, k - 1, -1):
            cs[i] = (cs[i] - cs[i - 1]) / (xs[i] - xs[i - k])
    coeffs: list[Scalar] = []
    for x, c in zip(reversed(xs), reversed(cs)):  # coeffs * (t - x) + c
        coeffs = [a - x * b for a, b in zip([0, *coeffs], [*coeffs, 0])]
        coeffs[0] += c
    return UniPoly(coeffs)


def order_polynomial(P: SkewPoset) -> UniPoly:
    """The order polynomial of P, interpolated from |P|+1 exact values."""
    values = order_polynomial_values(P, len(P) + 1)
    return interpolate_polynomial(list(enumerate(values, start=1)))


def leading_term_check(P: SkewPoset) -> bool:
    """Degree-|P| leading coefficient of the order polynomial equals e(P)/|P|!."""
    poly = order_polynomial(P)
    d = len(P)
    if d == 0:
        return poly == UniPoly([1])
    return poly.degree == d and poly.leading_coefficient == Fraction(
        count_linear_extensions(P), factorial(d)
    )
