"""Per-layer spans recorded from outside the program.

``Tracer`` wraps the public names each ``pasmpoly`` module calls, times
every call as a span, and charges each span its self time: its duration
minus the durations of the spans it encloses.  Nothing in ``src`` is
edited; the wrappers are installed by rebinding module globals and class
attributes, and every binding is restored by ``uninstall``.

A name is patched wherever it is looked up: every ``pasmpoly`` module whose
global namespace holds the same function object gets the wrapper, so
``pasmpoly.polytope.affine_rank`` and ``pasmpoly._linalg.rank`` are both
covered when ``rank`` is a target.  Generators are timed over their full
iteration, one span per resume, so time the consumer spends between items
is not charged to them.  A target that no longer exists is skipped and its
metrics are absent.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from typing import Callable, NamedTuple


class Target(NamedTuple):
    module: str            # module that defines the name, e.g. "pasmpoly._linalg"
    attr: str              # "rank", or "Class.method" for a method
    size: str | None = None             # name of the size counter, if any
    measure: Callable | None = None     # result -> size (ignored for generators)

    @property
    def key(self) -> str:
        """Metric prefix: module without the package or a leading underscore
        (metric names start with a letter), then the function."""
        module = self.module.rpartition(".")[2].lstrip("_")
        return f"{module}.{self.attr.rpartition('.')[2]}"


def _len(result) -> int:
    return len(result)


TARGETS = (
    Target("pasmpoly.cli", "main"),
    Target("pasmpoly._linalg", "rank"),
    Target("pasmpoly._linalg", "convex_combination_exists"),
    Target("pasmpoly.shapes", "enumerate_between", "partitions", _len),
    Target("pasmpoly.matrices", "vertex_matrix"),
    Target("pasmpoly.matrices", "corner_sums"),
    Target("pasmpoly.polytope", "PasmPolytope.dimension"),
    Target("pasmpoly.polytope", "PasmPolytope.satisfies_inequalities"),
    Target("pasmpoly.polytope", "PasmPolytope.dilate_integer_points", "points", _len),
    Target("pasmpoly.skewposet", "build_poset"),
    Target("pasmpoly.skewposet", "order_polynomial_value"),
    Target("pasmpoly.skewposet", "interpolate_polynomial"),
    Target("pasmpoly.skewposet", "count_linear_extensions"),
    Target("pasmpoly.skewposet", "enumerate_order_preserving_maps", "maps"),
    Target("pasmpoly.skewposet", "enumerate_filters"),
    Target("pasmpoly.hooklength", "naruse_count"),
    Target("pasmpoly.hooklength", "excited_diagrams", "diagrams", _len),
    Target("pasmpoly.equivalences", "certify_integral_equivalence"),
    Target("pasmpoly.equivalences", "to_order_point"),
    Target("pasmpoly.flowpoly", "build_flow_graph", "edges", lambda g: len(g.edges)),
    Target("pasmpoly.flowpoly", "count_integer_flows"),
    Target("pasmpoly.facelattice", "face_labeling"),
    Target("pasmpoly.facelattice", "region_count"),
)


class Tracer:
    """Span accounting for one traced pass; see the module docstring."""

    def __init__(self, targets=TARGETS, clock=time.perf_counter):
        self.targets = tuple(targets)
        self.clock = clock
        self.stats: dict[str, dict[str, float]] = {}
        self.missing: list[str] = []
        self._stack: list[list[float]] = []   # [start, time in child spans]
        self._saved: list[tuple[object, str, object]] = []

    # -- accounting ---------------------------------------------------------

    def _enter(self) -> None:
        self._stack.append([self.clock(), 0.0])

    def _exit(self, stat: dict[str, float]) -> None:
        start, children = self._stack.pop()
        duration = self.clock() - start
        stat["self_s"] += duration - children
        if self._stack:
            self._stack[-1][1] += duration

    def _wrap(self, fn, target: Target):
        stat = self.stats.setdefault(target.key, _empty(target))
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                stat["calls"] += 1
                it = fn(*args, **kwargs)
                while True:
                    self._enter()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._exit(stat)
                    if target.size:
                        stat[target.size] += 1
                    yield item
            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stat["calls"] += 1
            self._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(stat)
            if target.measure is not None:
                stat[target.size] += target.measure(result)
            return result
        return traced

    # -- installation -------------------------------------------------------

    def _rebind(self, owner, name: str, value) -> None:
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "pasmpoly" or n.startswith("pasmpoly.")) and m is not None]
        for target in self.targets:
            try:
                owner = importlib.import_module(target.module)
            except ImportError:
                owner = None
            path = target.attr.split(".")
            for part in path[:-1]:
                owner = getattr(owner, part, None)
            name = path[-1]
            if owner is None or name not in vars(owner):
                self.missing.append(target.key)
                continue
            original = vars(owner)[name]
            wrapper = self._wrap(original, target)
            if len(path) > 1:
                self._rebind(owner, name, wrapper)
                continue
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            owner, name, value = self._saved.pop()
            setattr(owner, name, value)
        self._stack.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def metrics(self) -> dict[str, float]:
        """Flat ``<module>.<function>.<stat>`` readings of this tracer."""
        return {f"{key}.{stat}": value
                for key, stats in self.stats.items() for stat, value in stats.items()}

    def total_self_s(self) -> float:
        return sum(s["self_s"] for s in self.stats.values())


def _empty(target: Target) -> dict[str, float]:
    stat = {"self_s": 0.0, "calls": 0}
    if target.size:
        stat[target.size] = 0
    return stat
