"""The cell poset of a skew shape, its order polytope, and counting tools.

Cells (i, j) are ordered componentwise: (i, j) <= (i', j') iff i <= i' and
j <= j'.  Elements are kept in row-major order, which is itself a linear
extension; that fact is exploited throughout.

The linear extensions e(P) and the order polynomial Omega(P, t) are counted
two ways.  ``count_linear_extensions`` and ``order_polynomial_values`` walk
the lattice J(P) of order ideals, whose size is L(1), so their cost grows
with the lattice.  ``_aitken_count`` and ``_gessel_viennot_values`` read
the same numbers off one determinant of side l(nu) from the parts of nu and
lam, in time polynomial in the shape; the CLI counts by them, and the
tests pin them to the lattice walks.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, islice
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


def _lower_cover_offsets(rows: Sequence[tuple[int, int, bool]]) -> list[int]:
    """For each element x of P, given by the rows (lam_i, nu_i, joined)
    that _skew_rows returns, the offset delta[x] that removing x moves an
    ideal back by in the list of _ideals_with_maxima: wherever x is maximal
    in the ideal at position k, the ideal minus x is at position
    k - delta[x].

    The walk lists the ideals as a nested product over the rows' parts,
    the top row varying fastest.  So the part q of row r heads a block of
    comp_r(q) ideals, one per filling of the rows above it: comp_0 = 1,
    and comp_r(q) sums comp_{r-1}(q') over q' from start_{r-1}(q) to
    nu_{r-1}, where start_{r-1}(q) is max(lam_{r-1}, q) when row r - 1 is
    joined to row r and lam_{r-1} otherwise.  Removing the cell x = (r, q)
    lowers the part to q - 1 and keeps the filling above, so it moves back
    past the block of q - 1, less the fillings at its head whose row r - 1
    part is q - 1, which the block of q lacks.  There are such fillings
    only when the rows are joined and q > lam_{r-1}:
    delta[x] = comp_r(q - 1) - [joined and q > lam_{r-1}] comp_{r-1}(q - 1).
    """
    delta: list[int] = []
    alam, ajoined, comp = 0, False, [1]  # an empty row above the top row
    for lam, nu, joined in rows:
        suffix = list(accumulate(reversed(comp)))[::-1]  # suffix[q' - alam]
        above, comp = comp, [suffix[max(alam, q) - alam if ajoined else 0]
                             for q in range(lam, nu + 1)]
        delta += [comp[q - 1 - lam] - (above[q - 1 - alam] if ajoined and q > alam else 0)
                  for q in range(lam + 1, nu + 1)]
        alam, ajoined = lam, joined
    return delta


def _ideals_with_maxima(P: SkewPoset, masks: bool = True
                        ) -> tuple[list[int] | None, list[tuple[int, ...]]]:
    """The down-closed subsets of P and the maximal elements of each.

    The ideals are bitmasks over elements, in increasing bitmask order: the
    list starts with the empty ideal and ends with all of P, and every
    ideal comes after the ideals it contains.  Each ideal's maxima are
    given by position: ``lower[k]`` holds -delta[x] (see
    _lower_cover_offsets) for each maximal element x of ``ideals[k]``, from
    the last row up, so that ``ideals[k - delta[x]]`` is the ideal minus x.
    With ``masks=False`` the bitmasks are not built and None stands for
    them; the offsets alone fix the lattice's covers.

    The ideals are the cells of the partitions mu between lam and nu, and
    are walked by their parts from the last row up, one list comprehension
    per row and list.  Row i's part q runs from the larger of lam_i and the
    part p of the row below (when that row holds cells) up to nu_i, and its
    cell (i, q) is maximal exactly when q exceeds both.  A row's additions
    (offset tuple of the maximal cell, prefix bits) are built once per part
    of the row below.  Since later rows hold the higher bits, the walk
    lists the ideals in increasing order.
    """
    rows = _skew_rows(P)
    delta = _lower_cover_offsets(rows)
    ideals, lower, below = [0], [()], [0]  # below: the part of the row below
    parts: Sequence[int] = (0,)
    shift = len(P)
    for lam, nu, joined in reversed(rows):
        shift -= nu - lam
        steps = {p: range(max(lam, p) if joined else lam, nu + 1) for p in parts}
        tops = {p: [(-delta[shift + q - lam - 1],) if q > qs.start else () for q in qs]
                for p, qs in steps.items()}
        if masks:
            bits = {p: [(1 << q - lam) - 1 << shift for q in qs] for p, qs in steps.items()}
            ideals = [I | b for I, p in zip(ideals, below) for b in bits[p]]
        lower = [D + top for D, p in zip(lower, below) for top in tops[p]]
        below = [q for p in below for q in steps[p]]
        parts = range(lam, nu + 1)
    return ideals if masks else None, lower


def _ideal_lattice(P: SkewPoset) -> tuple[list[int], list[list[tuple[int, int]]]]:
    """The lattice J(P) of down-closed subsets, as bitmasks over elements.

    Returns ``(ideals, covers)``, the ideals as listed by
    :func:`_ideals_with_maxima`.  ``covers[x]`` lists the pairs ``(i, j)``
    with ``ideals[j] == ideals[i] - {x}`` and x maximal in ``ideals[i]``, in
    increasing i.  They are read off each ideal's lower cover offsets, one
    pair per cover of the lattice; x is the one bit in which the two
    ideals differ.
    """
    ideals, lower = _ideals_with_maxima(P)
    covers: list[list[tuple[int, int]]] = [[] for _ in range(len(P))]
    for i, (I, D) in enumerate(zip(ideals, lower)):
        for o in D:
            j = i + o
            covers[(I ^ ideals[j]).bit_length() - 1].append((i, j))
    return ideals, covers


def count_linear_extensions(P: SkewPoset) -> int:
    """Number of order-preserving bijections onto {1,...,|P|}.

    Counts the saturated chains of J(P) from the empty ideal to P, one
    added maximal element per step: h(I) is the sum of h(I - {x}) over the
    maxima x of I, and each I - {x} is listed before I.  h is a list by
    position, and while h(I) is summed it holds the values of the ideals
    before I, so the offset -delta[x] that _ideals_with_maxima gives for x
    reads h(I - {x}) as h[-delta[x]].
    """
    lower = _ideals_with_maxima(P, masks=False)[1]
    h = [1]
    append = h.append
    get = h.__getitem__
    for D in islice(lower, 1, None):
        append(sum(map(get, D)))
    return h[-1]


def enumerate_order_preserving_maps(P: SkewPoset, t: int) -> Iterator[tuple[int, ...]]:
    """All order-preserving maps into {1,...,t}, as value tuples over elements,
    in lexicographic order.

    Relies on the row-major element order being a linear extension, so each
    element's lower covers are assigned before it.  The search is a
    depth-first walk in one frame: values[k] holds the iterator over the
    values still to try for element k, from the largest value of its lower
    covers up to t.  A t that is not an int, a bool among them, raises
    TypeError.
    """
    t = _int(t, "chain length")
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
               for I in _ideals_with_maxima(P)[0]]
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
