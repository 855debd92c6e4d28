"""Partitions, skew shapes, and border strips.

Cells are 1-based ``(row, col)`` pairs with rows increasing downward,
matching matrix indexing.
"""

from __future__ import annotations

from operator import index
from typing import Iterable, Iterator

Cell = tuple[int, int]


def _int(x, what: str) -> int:
    """x read through operator.index: a non-integer or a bool raises TypeError."""
    if isinstance(x, bool):
        raise TypeError(f"{what} must be an int, got bool")
    return index(x)


class Partition:
    """A weakly decreasing sequence of positive integers.

    Trailing zeros are accepted on input and trimmed; a part that is not an
    int raises TypeError.  Indexing is 1-based via :meth:`part`, which
    returns 0 beyond the last positive part.
    """

    __slots__ = ("parts",)

    def __init__(self, parts: Iterable[int] = ()):
        ps = []
        for p in parts:
            p = _int(p, "partition part")
            if p < 0:
                raise ValueError(f"negative part {p} in partition")
            ps.append(p)
        while ps and ps[-1] == 0:
            ps.pop()
        if any(p == 0 for p in ps):
            raise ValueError(f"interior zero part in {ps}")
        if any(ps[k] < ps[k + 1] for k in range(len(ps) - 1)):
            raise ValueError(f"parts {ps} are not weakly decreasing")
        self.parts: tuple[int, ...] = tuple(ps)

    def part(self, k: int) -> int:
        """1-based part access; parts beyond the length read as 0."""
        if k < 1:
            raise IndexError("partition parts are 1-based")
        return self.parts[k - 1] if k <= len(self.parts) else 0

    @property
    def size(self) -> int:
        return sum(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self) -> int:
        return hash(self.parts)

    def __repr__(self) -> str:
        return f"Partition({list(self.parts)})"

    def conjugate(self) -> "Partition":
        if not self.parts:
            return Partition()
        cols = [0] * self.parts[0]
        for p in self.parts:
            for j in range(p):
                cols[j] += 1
        return Partition(cols)

    def diagram(self) -> frozenset[Cell]:
        """All cells (i, j) with 1 <= j <= parts[i]."""
        return frozenset(
            (i, j) for i, p in enumerate(self.parts, start=1) for j in range(1, p + 1)
        )

    def to_json(self) -> list[int]:
        return list(self.parts)

    @classmethod
    def from_json(cls, data: Iterable[int]) -> "Partition":
        return cls(data)


def contains(inner: Partition, outer: Partition) -> bool:
    """Componentwise containment: inner_i <= outer_i for all i."""
    if len(inner) > len(outer):
        return False
    return all(inner.parts[k] <= outer.parts[k] for k in range(len(inner)))


def _between(lam: Partition, nu: Partition, length: int) -> Iterator[tuple[int, tuple[int, ...]]]:
    """(k, mu) for the parts mu_1..mu_length of every partition lam <= mu <=
    nu, in lexicographic order, k the first 0-based index that changed.

    An odometer: the last part below both its bound nu_k and the part above
    goes up by 1, and every later part drops back to lam.
    """
    lo = [lam.part(k) for k in range(1, length + 1)]
    hi = [nu.part(k) for k in range(1, length + 1)]
    mu, k = lo[:], 0
    while True:
        yield k, tuple(mu)
        k = length - 1
        while k >= 0 and (mu[k] == hi[k] or k and mu[k] == mu[k - 1]):
            k -= 1
        if k < 0:
            return
        mu[k] += 1
        mu[k + 1:] = lo[k + 1:]


def enumerate_between(lam: Partition, nu: Partition) -> list[Partition]:
    """All partitions mu with lam <= mu <= nu, in lexicographic order.

    The count equals the number of order filters of the skew poset on
    nu/lam cells.  The partitions are read off the odometer _between over
    the len(nu) parts of nu, a part 0 ending the partition.
    """
    if not contains(lam, nu):
        raise ValueError(f"{lam!r} is not contained in {nu!r}")
    return [Partition(mu) for _, mu in _between(lam, nu, len(nu))]


def border_strip(nu: Partition, m: int, n: int) -> frozenset[Cell]:
    """The border strip hugging the outside of nu in an m x n box.

    Row 1 contributes the single cell just east of the first row of nu;
    row i >= 2 spans columns nu_i + 1 through nu_{i-1} + 1.  The result is
    edge-connected, avoids the diagram of nu, and contains no 2x2 square.
    """
    if len(nu) > m - 1 or nu.part(1) > n - 1:
        raise ValueError(f"{nu!r} does not fit inside ({n-1})^({m-1})")
    cells = {(1, nu.part(1) + 1)}
    for i in range(2, len(nu) + 2):
        for j in range(nu.part(i) + 1, nu.part(i - 1) + 2):
            cells.add((i, j))
    return frozenset(cells)


class SkewShape:
    """A pair of nested partitions lam <= nu inside an m x n ambient box.

    The box must satisfy nu <= (n-1)^(m-1), with int m and n.  When m, n are
    omitted the minimal box (len(nu)+1 rows, nu_1+1 columns) is used.
    """

    __slots__ = ("nu", "lam", "m", "n")

    def __init__(self, nu: Partition, lam: Partition, m: int | None = None, n: int | None = None):
        if not contains(lam, nu):
            raise ValueError(f"{lam!r} is not contained in {nu!r}")
        m = len(nu) + 1 if m is None else _int(m, "m")
        n = nu.part(1) + 1 if n is None else _int(n, "n")
        if m < 1 or n < 1:
            raise ValueError("ambient box dimensions must be positive")
        if len(nu) > m - 1 or nu.part(1) > n - 1:
            raise ValueError(f"{nu!r} does not fit inside ({n-1})^({m-1})")
        self.nu = nu
        self.lam = lam
        self.m = m
        self.n = n

    @property
    def size(self) -> int:
        return self.nu.size - self.lam.size

    def cells(self) -> tuple[Cell, ...]:
        """Cells of nu/lam in row-major order."""
        # From a list, not a generator: tuple() resizes a generator's
        # tuple, and a resized tuple, once freed, stays on CPython's free
        # list for its size until a full collection.
        return tuple([
            (i, j)
            for i in range(1, len(self.nu) + 1)
            for j in range(self.lam.part(i) + 1, self.nu.part(i) + 1)
        ])

    def border_strip(self) -> frozenset[Cell]:
        return border_strip(self.nu, self.m, self.n)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SkewShape)
            and (self.nu, self.lam, self.m, self.n) == (other.nu, other.lam, other.m, other.n)
        )

    def __hash__(self) -> int:
        return hash((self.nu, self.lam, self.m, self.n))

    def __repr__(self) -> str:
        return f"SkewShape(nu={list(self.nu)}, lam={list(self.lam)}, m={self.m}, n={self.n})"

    def to_json(self) -> dict:
        return {"lambda": self.lam.to_json(), "nu": self.nu.to_json(), "m": self.m, "n": self.n}


def cells(shape: SkewShape) -> tuple[Cell, ...]:
    return shape.cells()
