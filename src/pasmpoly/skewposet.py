"""The cell poset of a skew shape, its order polytope, and counting tools.

Cells (i, j) are ordered componentwise: (i, j) <= (i', j') iff i <= i' and
j <= j'.  Elements are kept in row-major order, which is itself a linear
extension; that fact is exploited throughout.

The linear extensions e(P) and the order polynomial Omega(P, t) are counted
two ways.  ``_aitken_count`` and ``_gessel_viennot_values`` read them off
one determinant of side l(nu) from the parts of nu and lam, in time
polynomial in the shape; the CLI counts by them.  ``count_linear_extensions``
and ``order_polynomial_values`` sum over the lattice J(P) of order ideals,
which ``_ideal_lattice`` grows one element at a time from P's own covers,
so they count any ``SkewPoset`` and their cost grows with the lattice,
whose size is L(1).  They are the independent oracles that the tests hold
the determinants to.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, lcm, perm, prod
from typing import Iterator, Mapping, Sequence

from ._linalg import det
from .matrices import Scalar, _exact
from .shapes import Cell, Partition, SkewShape, _int


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
        # From lists, not generators, as in SkewShape.cells.
        self._up = tuple([tuple(v) for v in up])
        self._down = tuple([tuple(v) for v in down])

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


def _ideal_lattice(P: SkewPoset) -> tuple[list[int], list[list[tuple[int, int]]]]:
    """The lattice J(P) of down-closed subsets, as bitmasks over elements.

    Returns ``(ideals, covers)``.  The ideals are grown one element at a
    time in index order: x joins every ideal listed so far that holds its
    lower covers.  Each cover goes from a smaller to a larger index, so
    index order is a linear extension.  The ideals that x joins hold bit x
    and no higher bit, so they sort above every ideal listed before them,
    and the list is in increasing bitmask order: it starts with the empty
    ideal, ends with all of P, and every ideal comes after the ideals it
    contains.  ``covers[x]`` lists the pairs ``(i, j)`` with
    ``ideals[j] == ideals[i] - {x}`` and x maximal in ``ideals[i]``, in
    increasing i, read off a {mask: position} index.
    """
    ideals = [0]
    for x in range(len(P)):
        below = sum(1 << a for a in P.lower_covers(x))
        ideals += [I | 1 << x for I in ideals if I & below == below]
    index = {I: k for k, I in enumerate(ideals)}
    covers = []
    for x in range(len(P)):
        bit = 1 << x
        above = sum(1 << b for b in P.upper_covers(x))
        covers.append([(i, index[I ^ bit]) for i, I in enumerate(ideals)
                       if I & bit and not I & above])
    return ideals, covers


def count_linear_extensions(P: SkewPoset) -> int:
    """Number of order-preserving bijections onto {1,...,|P|}.

    Counts the saturated chains of J(P) from the empty ideal to P, one
    added maximal element per step: h(I) is the sum of h(I - {x}) over the
    maxima x of I.  The cover pairs (i, j) of _ideal_lattice are summed in
    sorted order: j < i, so the pairs that complete h[j] come before h[j]
    is added to h[i].
    """
    ideals, covers = _ideal_lattice(P)
    h = [1] + [0] * (len(ideals) - 1)
    for i, j in sorted(pair for pairs in covers for pair in pairs):
        h[i] += h[j]
    return h[-1]


def enumerate_order_preserving_maps(P: SkewPoset, t: int) -> Iterator[tuple[int, ...]]:
    """All order-preserving maps into {1,...,t}, as value tuples over elements,
    in lexicographic order.

    An odometer, like ``shapes._between``: the last element below t goes up
    by 1, and every later element drops back to its least value, the
    largest value of its lower covers, or 1.  This is exact because the
    row-major element order is a linear extension: an element's lower
    covers come before it, and its upper covers after it, where they are
    reset.  A t that is not an int, a bool among them, raises TypeError.
    """
    t = _int(t, "chain length")
    if t < 1:
        raise ValueError("the target chain must have at least one element")
    d = len(P)
    down = [P.lower_covers(k) for k in range(d)]
    vals, k = [1] * d, 0
    while True:
        for j in range(k + 1, d):
            lo = 1
            for p in down[j]:
                if vals[p] > lo:
                    lo = vals[p]
            vals[j] = lo
        yield tuple(vals)
        k = d - 1
        while k >= 0 and vals[k] == t:
            k -= 1
        if k < 0:
            return
        vals[k] += 1


def order_polynomial_values(P: SkewPoset, t_max: int) -> list[int]:
    """[Omega(P, 1), ..., Omega(P, t_max)]: order-preserving maps into t-chains.

    A map into {1,...,t} is a multichain of t - 1 ideals between the empty
    ideal and P, so Omega(P, t) = zeta^t(empty, P) on J(P) (Stanley, "Two
    poset polytopes", 1986).  Each zeta pass sums g over all sub-ideals one
    element at a time, in row-major order: adding g(I - {x}) to g(I) for
    every cover pair of x.  A t_max that is not an int, a bool among them,
    raises TypeError.
    """
    t_max = _int(t_max, "t_max")
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


def _aitken_count(nu: Partition, lam: Partition) -> int:
    """e(P) of the nu/lam cell poset, by Aitken's determinant

        e(P) = d! det[1 / (nu_i - lam_j - i + j)!]_{i, j <= l(nu)},

    with 1/k! = 0 for k < 0 (Stanley, EC2 Cor. 7.16.3).  Row i is scaled
    by (nu_i + l - i)!, which makes its entries the falling factorials
    perm(nu_i + l - i, lam_j + l - j), all ints; d! det is then divided by
    the product of the scales.  Raises ArithmeticError if that leaves a
    remainder.
    """
    ell = len(nu)
    tops = [nu.part(i) + ell - i for i in range(1, ell + 1)]
    lows = [lam.part(j) + ell - j for j in range(1, ell + 1)]
    numerator = factorial(nu.size - lam.size) * det([[perm(a, b) for b in lows] for a in tops])
    denominator = prod(map(factorial, tops))
    quotient, remainder = divmod(numerator, denominator)
    if remainder:
        raise ArithmeticError(f"Aitken determinant produced non-integer {numerator}/{denominator}")
    return quotient


def _gessel_viennot_values(nu: Partition, lam: Partition, t_max: int) -> list[int]:
    """[Omega(P, 1), ..., Omega(P, t_max)] of the nu/lam cell poset, one
    determinant each (Gessel-Viennot 1989):

        Omega(P, t) = det[h_{nu_i - lam_j - i + j}(t + i - j)]_{i, j <= l(nu)}.

    f -> f(i, j) + i turns the maps into {1, ..., t} into fillings strict
    down the columns whose row i takes values in {i + 1, ..., i + t}, and
    those are counted by nonintersecting lattice paths.  h_k(N) =
    C(N + k - 1, k) counts the multisets of k values out of N: h_0 = 1,
    and h_k = 0 for k < 0 or N + k - 1 < 0.
    """
    ell = len(nu)

    def h(k: int, N: int) -> int:
        if k == 0:
            return 1
        return comb(N + k - 1, k) if k > 0 and N + k - 1 >= 0 else 0

    return [det([[h(nu.part(i) - lam.part(j) - i + j, t + i - j) for j in range(1, ell + 1)]
                 for i in range(1, ell + 1)])
            for t in range(1, t_max + 1)]


def order_polynomial_value(P: SkewPoset, t: int) -> int:
    """Number of order-preserving maps from P into a t-chain; a t that is
    not an int, a bool among them, raises TypeError."""
    t = _int(t, "chain length")
    if t < 1:
        raise ValueError("order polynomial is defined for positive t")
    return order_polynomial_values(P, t)[-1]


def enumerate_filters(P: SkewPoset) -> list[frozenset[Cell]]:
    """All up-closed subsets; indicator functions of these are exactly the
    0/1 points of the order polytope."""
    filters = [frozenset(c for k, c in enumerate(P.elements) if not I >> k & 1)
               for I in _ideal_lattice(P)[0]]
    return sorted(filters, key=lambda s: (len(s), sorted(s)))


class UniPoly:
    """Univariate polynomial with exact coefficients, constant term first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[Scalar] = ()):
        cs = [Fraction(_exact(c)) for c in coeffs]
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
        t = _exact(t)
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
    xs = [Fraction(_exact(x)) for x, _ in values]
    ys = [Fraction(_exact(y)) for _, y in values]
    if len(set(xs)) != len(xs):
        raise ValueError("duplicate abscissae")
    xden = lcm(*[x.denominator for x in xs])  # lists, as in SkewShape.cells
    yden = lcm(*[y.denominator for y in ys])
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
