"""Timings of the bench ladder: every CLI subcommand on each ladder shape,
``dim`` at four frontier shapes, and the certificate's dilate census at
four points past the guardrail.

    python tools/ladder.py [--src NAME=PATH ...] > BENCH_<pr>.json

Each ``--src`` names a source tree (a directory holding the ``pasmpoly``
package, ``src`` of this checkout by default), and the output files each
tree's times under its name.  One child interpreter per tree imports its
package and times, in-process, whichever operation it is sent: best of 3,
in CPU and wall seconds.  The trees take each operation in turn, the first
tree alternating from round to round, so a slow spell of a shared host
falls on both; the output keeps each operation's best over 9 rounds.
``main()`` calls capture their output; ``check`` and ``phi`` read the
first vertex of the shape, the latter in a square box.  A ladder command's
result is its exit code, a frontier ``dim``'s the dimension it prints.  The
census times call ``equivalences._census`` directly.  The output is one
JSON object; its ``machine`` entry names where it ran.  Standard library
only.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (nu, lam), from (4,2,2)/(3,1) to 6^5 (d = 30).
LADDER = (
    ((4, 2, 2), (3, 1)),
    ((4, 4, 4), ()),
    ((5, 4, 3, 2, 1), ()),
    ((5, 5, 5, 5), ()),
    ((6, 6, 6, 6), (2, 2)),
    ((6, 6, 6, 6, 6), ()),
)
COMMANDS = ("vertices", "check", "dim", "volume", "ehrhart", "face-labeling",
            "flow-graph", "phi", "certify")
# nu: dim on the frontier shapes 10^9, 11^10, 60^4 and 200^3.
DIM = ((10,) * 9, (11,) * 10, (60,) * 4, (200,) * 3)
# (nu, t): the census of the t-th dilate of nu, beyond the dilate guardrail.
CENSUS = (((4, 4, 4), 8), ((6,) * 5, 4), ((9,) * 8, 2), ((12,) * 11, 2))
OPERATIONS = len(LADDER) * len(COMMANDS) + len(DIM) + len(CENSUS)
REPS = 3
ROUNDS = 9


def _label(nu, lam=()) -> str:
    return ",".join(map(str, nu)) + ("/" + ",".join(map(str, lam)) if lam else "")


def _operations(src: str, tmp: str) -> list[tuple[dict, object]]:
    """Each operation as (its record, a call that runs it once and returns
    the exit code, the dimension or the census), on the package found in
    src."""
    sys.path.insert(0, src)
    from pasmpoly import Partition, PasmPolytope, SkewShape, build_poset, cli
    from pasmpoly.equivalences import _census

    def run(argv):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return cli.main(argv)

    def dim(nu):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            cli.main(["dim", "--nu", ",".join(map(str, nu))])
        return int(out.getvalue())

    ops = []
    for nu, lam in LADDER:
        shape = SkewShape(Partition(nu), Partition(lam))
        square = max(shape.m, shape.n)
        paths = {}
        for name, box in (("check", shape), ("phi", SkewShape(shape.nu, shape.lam, square, square))):
            paths[name] = os.path.join(tmp, f"{len(ops)}.{name}.json")
            with open(paths[name], "w") as fh:
                json.dump(PasmPolytope(box).vertices()[0].to_json_dict(), fh)
        base = ["--nu", ",".join(map(str, nu)), "--lambda", ",".join(map(str, lam))]
        for command in COMMANDS:
            argv = [command] + (base if command != "phi" else [])
            if command in paths:
                argv += ["--matrix", paths[command]]
            if command == "certify":
                argv += ["--tmax", "4" if shape.size <= 8 else "1"]
            shown = " ".join(a if a not in paths.values() else "VERTEX.json" for a in argv)
            ops.append(({"shape": _label(nu, lam), "d": shape.size, "command": command, "argv": shown},
                        lambda argv=argv: run(argv)))
    for nu in DIM:
        ops.append(({"shape": _label(nu), "d": sum(nu), "command": "dim"}, lambda nu=nu: dim(nu)))
    for nu, t in CENSUS:
        shape = SkewShape(Partition(nu), Partition())
        poly, P = PasmPolytope(shape), build_poset(shape)
        ops.append(({"shape": _label(nu), "t": t},
                    lambda poly=poly, P=P, t=t: list(_census(poly, P, t))))
    return ops


def child(src: str) -> None:
    """Answer each operation index read from stdin with one JSON line: its
    record, its result and its best CPU and wall seconds of REPS runs."""
    with tempfile.TemporaryDirectory() as tmp:
        ops = _operations(src, tmp)
        for line in sys.stdin:
            record, call = ops[int(line)]
            cpu = wall = float("inf")
            for _ in range(REPS):
                c, w = time.process_time(), time.perf_counter()
                result = call()
                cpu, wall = min(cpu, time.process_time() - c), min(wall, time.perf_counter() - w)
            print(json.dumps({**record, "result": result, "cpu_s": cpu, "wall_s": wall}), flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", action="append", metavar="NAME=PATH",
                        help="a source tree to time (default: change=src of this checkout)")
    parser.add_argument("--child", metavar="PATH", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        child(args.child)
        return 0
    trees = dict(spec.split("=", 1) for spec in (args.src or [f"change={ROOT / 'src'}"]))
    children = {name: subprocess.Popen([sys.executable, __file__, "--child", str(Path(src).resolve())],
                                       stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
                for name, src in trees.items()}
    best: dict[str, list[dict]] = {name: [] for name in trees}
    try:
        for r in range(ROUNDS):
            for k in range(OPERATIONS):
                for name in list(trees)[::1 if r % 2 == 0 else -1]:
                    proc = children[name]
                    proc.stdin.write(f"{k}\n")
                    proc.stdin.flush()
                    run = json.loads(proc.stdout.readline())
                    if r:
                        for key in ("cpu_s", "wall_s"):
                            run[key] = min(run[key], best[name][k][key])
                        best[name][k] = run
                    else:
                        best[name].append(run)
    finally:
        for proc in children.values():
            proc.stdin.close()
            proc.wait()
    result = {
        "machine": {"python": platform.python_version(), "platform": platform.platform(),
                    "cpus": os.cpu_count()},
        "method": f"in-process, best of {REPS} per operation and round, best over "
                  f"{ROUNDS} rounds; the trees take each operation in turn; "
                  "CPU and wall seconds",
        "per_layer": "not recorded: per-layer timings of the ladder wait on ROADMAP item 10",
        "trees": {name: {"commands": runs[:-len(DIM) - len(CENSUS)],
                         "dim": runs[-len(DIM) - len(CENSUS):-len(CENSUS)],
                         "census": runs[-len(CENSUS):]}
                  for name, runs in best.items()},
    }
    print(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
