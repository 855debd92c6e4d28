"""Shape families used by sweep tests and the acceptance suite."""

from pasmpoly import Partition, SkewShape, enumerate_between


def partitions_of_size_at_most(max_size: int) -> list[Partition]:
    """All partitions with at most max_size boxes, smallest first."""
    out: list[Partition] = []

    def rec(remaining: int, prev: int, acc: list[int]) -> None:
        out.append(Partition(acc))
        for p in range(1, min(prev, remaining) + 1):
            acc.append(p)
            rec(remaining - p, p, acc)
            acc.pop()

    rec(max_size, max_size, [])
    uniq = sorted(set(out), key=lambda p: (p.size, p.parts))
    return uniq


def all_skew_shapes(max_outer_size: int, max_skew_size: int | None = None) -> list[SkewShape]:
    """Every (lam, nu) pair with |nu| bounded, in minimal ambient boxes."""
    shapes = []
    for nu in partitions_of_size_at_most(max_outer_size):
        for lam in enumerate_between(Partition(), nu):
            if max_skew_size is not None and nu.size - lam.size > max_skew_size:
                continue
            shapes.append(SkewShape(nu, lam))
    return shapes


def staircase(n: int) -> Partition:
    return Partition(range(n - 1, 0, -1))
