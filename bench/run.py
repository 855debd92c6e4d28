"""pasmpoly benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload construct --seed 1 --seconds 35 --trace 0

Runs from the root of a source checkout and imports ``pasmpoly`` from
``src``.  The workload's operations are generated from the seed, then run
one at a time (a closed loop with a single client) in passes until the time
is spent, each output checked against ``workloads.classify``.  Operations
are in-process ``pasmpoly.cli.main(argv)`` calls with captured output, plus
``extreme`` (``is_extreme``) and ``flow-count`` (``count_integer_flows``).

``--trace 0`` reports the end-to-end metrics of untraced passes.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of the traced ones (``spans.Tracer``), with the tracing
overhead as the ratio of the two.  Every metric is a median over passes.
``wall_s`` and ``setup_s`` are in reference seconds (``calibrate``): wall
time scaled by the speed of a fixed kernel sampled all through the pass,
which takes out the drift of a shared host's speed.  The last stdout line
is the result object; the line before it is the run record (environment,
raw, CPU and reference seconds per operation, failures, limits).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 21  # two after each pass while short, the rest after the last
SETUP_ARGV = ["dim", "--nu", "4,2,2", "--lambda", "3,1"]
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); "
              "from pasmpoly.cli import main; sys.exit(main(sys.argv[2:]))")

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# Per-layer metrics reported with --trace 1, each a median over traced
# passes.  ``<module>.<function>.self_s`` is the function's time minus its
# traced callees; the other stats are per-pass counts.
LAYER_STATS = {
    "linalg.rank": ("self_s", "calls"),
    "linalg.convex_combination_exists": ("self_s", "calls"),
    "shapes.enumerate_between": ("self_s", "calls", "partitions"),
    "matrices.vertex_matrix": ("self_s", "calls"),
    "polytope.dimension": ("self_s",),
    "skewposet.order_polynomial_value": ("self_s", "calls"),
    "skewposet.interpolate_polynomial": ("self_s",),
    "skewposet.count_linear_extensions": ("self_s",),
    "hooklength.naruse_count": ("self_s",),
    "hooklength.excited_diagrams": ("self_s", "diagrams"),
    "polytope.dilate_integer_points": ("self_s", "points"),
    "matrices.corner_sums": ("self_s", "calls"),
    "skewposet.enumerate_order_preserving_maps": ("self_s", "maps"),
    "skewposet.enumerate_filters": ("self_s",),
    "equivalences.certify_integral_equivalence": ("self_s",),
    "equivalences.to_order_point": ("calls",),
    "polytope.satisfies_inequalities": ("calls",),
    "flowpoly.count_integer_flows": ("self_s",),
    "flowpoly.build_flow_graph": ("self_s", "edges"),
    "facelattice.face_labeling": ("self_s",),
    "facelattice.region_count": ("self_s",),
    "skewposet.build_poset": ("self_s",),
    "cli.main": ("self_s",),
}
PER_LAYER = {f"{key}.{stat}": ("s" if stat == "self_s" else "count")
             for key, stats in LAYER_STATS.items() for stat in stats}
PER_LAYER.update({"trace.overhead_share": "share", "trace.coverage_share": "share",
                  "fail_share": "share"})


class Runner:
    """Prepared operations of one workload and everything measured on them."""

    def __init__(self, ops, workdir: Path):
        import pasmpoly.cli
        import pasmpoly.flowpoly
        import pasmpoly.polytope
        from pasmpoly import Matrix, Partition, PasmPolytope, SkewShape, build_poset

        self.ops = ops
        self.calls = []
        for k, op in enumerate(ops):
            if op.command in ("check", "phi"):
                path = workdir / f"op{k}.json"
                path.write_text(json.dumps(workloads.matrix_json(op.payload)))
                argv = (op.argv() if op.command == "check" else ["phi", *op.args])
                self.calls.append(_cli_call(pasmpoly.cli, argv + ["--matrix", str(path)]))
            elif op.command == "extreme":
                X = Matrix(op.payload)
                shape = SkewShape(Partition(op.shape[0]), Partition(op.shape[1]))
                others = [V for V in PasmPolytope(shape).vertices() if V != X]
                self.calls.append(_library_call(pasmpoly.polytope, "is_extreme", X, others))
            elif op.command == "flow-count":
                shape = SkewShape(Partition(op.shape[0]), Partition(op.shape[1]))
                graph = pasmpoly.flowpoly.build_flow_graph(build_poset(shape))
                t = int(op.args[-1])
                self.calls.append(
                    _library_call(pasmpoly.flowpoly, "count_integer_flows", graph, t))
            else:
                self.calls.append(_cli_call(pasmpoly.cli, op.argv()))
        self.results: list[list[tuple[str, str]]] = [[] for _ in ops]
        self.times: list[list[tuple[float, float, float]]] = [[] for _ in ops]
        self.traced: list[bool] = []   # per pass

    def execute(self, k: int) -> tuple[float, float, float]:
        """Run operation k once and check its output: (start, end, CPU s)."""
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            code, out, err = self.calls[k]()
        except Exception:   # a crash is a failed operation, not a failed run
            code, out, err = -1, "", traceback.format_exc()
        t1, cpu = time.perf_counter(), time.process_time() - c0
        self.results[k].append(workloads.classify(self.ops[k], code, out, err))
        return t0, t1, cpu

    def timed(self) -> list[int]:
        return [k for k, op in enumerate(self.ops) if not op.probe]

    def run_pass(self, tracer: spans.Tracer | None = None) -> tuple[float, float]:
        """One pass over the timed operations: (raw, reference) seconds.
        The sampler's handler time inside an operation is taken out of it,
        and out of the tracer's spans, whose clock stops while it runs."""
        self.traced.append(tracer is not None)
        before = calibrate.kernel_seconds()
        sampler = calibrate.Sampler()
        if tracer is not None:
            tracer.clock = sampler.clock
        with sampler, tracer or contextlib.nullcontext():
            runs = [(k, *self.execute(k)) for k in self.timed()]
        factor = calibrate.speed_factor(
            [before, *sampler.kernels(), calibrate.kernel_seconds()])
        for k, t0, t1, cpu in runs:
            busy = sampler.busy_between(t0, t1)
            self.times[k].append((t1 - t0 - busy, cpu - busy, (t1 - t0 - busy) * factor))
        wall = sum(self.times[k][-1][0] for k, *_ in runs)
        return wall, wall * factor

    def run_probes(self) -> None:
        for k, op in enumerate(self.ops):
            if op.probe:
                t0, t1, cpu = self.execute(k)
                factor = calibrate.speed_factor([calibrate.kernel_seconds()])
                self.times[k].append((t1 - t0, cpu, (t1 - t0) * factor))

    def untraced_times(self, k: int) -> list[tuple[float, float, float]]:
        """(raw, CPU, reference) seconds of operation k in untraced passes;
        for a probe, its one run."""
        if self.ops[k].probe:
            return self.times[k]
        return [t for t, traced in zip(self.times[k], self.traced) if not traced]

    def tally(self) -> dict[str, float]:
        """Operations failed and limited.  A guardrail refusal of a probe is
        ``limited``; any other result that is not "ok" is ``failed``, a
        refusal of a timed operation too.  ``fail_share`` counts both."""
        outcomes = [self.outcome(k)[0] for k in range(len(self.ops))]
        limited = sum(kind == "limit" and op.probe for op, kind in zip(self.ops, outcomes))
        failed = sum(kind != "ok" for kind in outcomes) - limited
        return {"failed": failed, "limited": limited,
                "fail_share": (failed + limited) / len(self.ops)}

    def outcome(self, k: int) -> tuple[str, str]:
        """Worst result of operation k: a failure beats a limit beats ok."""
        for kind in ("fail", "limit"):
            for result in self.results[k]:
                if result[0] == kind:
                    return result
        return self.results[k][0]


def _cli_call(cli, argv):
    def call():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
        return code, out.getvalue(), err.getvalue()
    return call


def _library_call(module, name, *args):
    def call():
        try:
            return 0, str(getattr(module, name)(*args)), ""
        except ValueError as exc:
            return 2, "", f"error: {exc}"
    return call


def setup_sample() -> tuple[float, float, bool]:
    """Fresh interpreter: import pasmpoly.cli and run ``dim`` on (4,2,2)/(3,1).
    Returns raw and reference seconds and whether the output was right."""
    kernels = [calibrate.kernel_seconds() for _ in range(4)]
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(ROOT / "src"), *SETUP_ARGV],
                          cwd=ROOT, capture_output=True, text=True, timeout=60)
    wall = time.perf_counter() - t0
    kernels += [calibrate.kernel_seconds() for _ in range(4)]
    ok = proc.returncode == 0 and proc.stdout == "4\n"
    return wall, wall * calibrate.speed_factor(kernels), ok


def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        return (ROOT / ".git" / ref[5:]).read_text().strip()
    except OSError:
        return None


def measure(runner: Runner, seconds: float, traced: bool):
    """Passes until the next one would end past ``seconds``; at least three
    untraced passes, or two untraced and two traced with ``traced``.
    Returns (raw, reference) pass seconds keyed by traced, the tracers'
    metrics and coverage per traced pass, and the set-up samples."""
    start = time.perf_counter()
    walls: dict[bool, list[tuple[float, float]]] = {False: [], True: []}
    layers: list[dict[str, float]] = []
    coverage: list[float] = []
    setup: list[tuple[float, float, bool]] = []
    passes = 0
    while True:
        with_trace = traced and passes % 2 == 1
        if with_trace:
            tracer = spans.Tracer()
            wall, ref = runner.run_pass(tracer)
            layers.append(tracer.metrics())
            coverage.append(tracer.total_self_s() / wall)
        else:
            wall, ref = runner.run_pass()
        walls[with_trace].append((wall, ref))
        passes += 1
        if not traced and len(setup) < SETUP_SAMPLES:
            setup += [setup_sample(), setup_sample()]
        elapsed = time.perf_counter() - start
        if passes >= (4 if traced else 3) and elapsed * (passes + 1) / passes > seconds:
            break
    while not traced and len(setup) < SETUP_SAMPLES:
        setup.append(setup_sample())
    return walls, layers, coverage, setup


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import pasmpoly
    except ImportError as exc:
        print(f"error: cannot import pasmpoly from {src}: {exc}", file=sys.stderr)
        return 2
    if Path(pasmpoly.__file__).resolve().parent != src / "pasmpoly":
        print(f"error: pasmpoly was imported from {pasmpoly.__file__}, not {src}",
              file=sys.stderr)
        return 2

    ops = workloads.generate(args.workload, args.seed)
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(ops, workdir)
        walls, layers, coverage, setup = measure(runner, args.seconds, bool(args.trace))
        runner.run_probes()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()

    tally = runner.tally()
    failed = tally["failed"] + (not all(ok for _, _, ok in setup))
    attempted = len(ops) + bool(setup)  # the set-up run is checked too
    outcomes = [runner.outcome(k) for k in range(len(ops))]

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "nproc": os.cpu_count(), "git_sha": git_sha(),
        "passes": len(runner.traced), "traced_passes": sum(runner.traced),
        "pass_wall_s": [w for w, _ in walls[False]],
        "pass_ref_s": [r for _, r in walls[False]],
        "traced_pass_ref_s": [r for _, r in walls[True]],
        "setup_wall_s": [w for w, _, _ in setup],
        "setup_ref_s": [r for _, r, _ in setup],
        "attempted": attempted, "failed": failed, "limited": tally["limited"],
        "fail_share": tally["fail_share"],
        "commands_ref_s": command_sums(runner),
        "operations": [
            {"op": op.label, "probe": op.probe, "result": outcomes[k][0],
             "message": outcomes[k][1],
             **{key: statistics.median(t[i] for t in runner.untraced_times(k))
                for i, key in enumerate(("wall_s", "cpu_s", "ref_s"))}}
            for k, op in enumerate(ops)],
    }
    if args.trace:
        untraced = statistics.median(r for _, r in walls[False])
        traced = statistics.median(r for _, r in walls[True])
        values = {name: statistics.median(m[name] for m in layers)
                  for name in PER_LAYER if name in layers[0]}
        values["trace.overhead_share"] = traced / untraced - 1
        values["trace.coverage_share"] = statistics.median(coverage)
        values["fail_share"] = record["fail_share"]
        units = PER_LAYER
    else:
        values = {
            "wall_s": statistics.median(r for _, r in walls[False]),
            "setup_s": statistics.median(r for _, r, _ in setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
    for name, value in values.items():
        print(f"{name:48s} {value:.6g} {units[name]}", file=sys.stderr)
    print(json.dumps({"run_record": record}))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


def command_sums(runner: Runner) -> dict[str, float]:
    """``<command>_s``: the per-pass sum of each command's untraced reference
    seconds, median over passes, and ``wall_s`` for the whole pass."""
    sums: dict[str, list[float]] = {}
    for k in runner.timed():
        key = runner.ops[k].command.replace("-", "_") + "_s"
        refs = [r for _, _, r in runner.untraced_times(k)]
        series = sums.setdefault(key, [0.0] * len(refs))
        for p, r in enumerate(refs):
            series[p] += r
    total = [sum(col) for col in zip(*sums.values())]
    out = {key: statistics.median(series) for key, series in sorted(sums.items())}
    out["wall_s"] = statistics.median(total)
    return out


if __name__ == "__main__":
    sys.exit(main())
