"""Partitions, skew shapes, and border strips.

Cells are 1-based ``(row, col)`` pairs with rows increasing downward,
matching matrix indexing.
"""

from __future__ import annotations

from typing import Iterable, Iterator

Cell = tuple[int, int]


class Partition:
    """A weakly decreasing sequence of positive integers.

    Trailing zeros are accepted on input and trimmed.  Indexing is 1-based
    via :meth:`part`, which returns 0 beyond the last positive part.
    """

    __slots__ = ("parts",)

    def __init__(self, parts: Iterable[int] = ()):
        ps = []
        for p in parts:
            p = int(p)
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


def enumerate_between(lam: Partition, nu: Partition) -> list[Partition]:
    """All partitions mu with lam <= mu <= nu, in lexicographic order.

    The count equals the number of order filters of the skew poset on
    nu/lam cells.
    """
    if not contains(lam, nu):
        raise ValueError(f"{lam!r} is not contained in {nu!r}")
    out: list[Partition] = []
    acc: list[int] = []

    def rec(k: int, prev: int) -> None:
        lo = lam.part(k)
        hi = min(nu.part(k), prev)
        if lo == 0:
            out.append(Partition(acc))
            lo = 1
        for p in range(lo, hi + 1):
            acc.append(p)
            rec(k + 1, p)
            acc.pop()

    rec(1, nu.part(1))
    return out


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

    The box must satisfy nu <= (n-1)^(m-1).  When m, n are omitted the
    minimal box (len(nu)+1 rows, nu_1+1 columns) is used.
    """

    __slots__ = ("nu", "lam", "m", "n")

    def __init__(self, nu: Partition, lam: Partition, m: int | None = None, n: int | None = None):
        if not contains(lam, nu):
            raise ValueError(f"{lam!r} is not contained in {nu!r}")
        if m is None:
            m = len(nu) + 1
        if n is None:
            n = nu.part(1) + 1
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
        return tuple(
            (i, j)
            for i in range(1, len(self.nu) + 1)
            for j in range(self.lam.part(i) + 1, self.nu.part(i) + 1)
        )

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
