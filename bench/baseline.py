"""Record a baseline: every workload untraced and traced, in fresh processes.

    python3 bench/baseline.py --seed 1 --seconds 35 > bench/baseline.json

Prints one JSON document: per workload, the end-to-end metrics and run
record of a ``--trace 0`` run and the per-layer metrics of a ``--trace 1``
run, with the layers ranked by self time.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=600, check=True)
    *_, record, result = proc.stdout.splitlines()
    return json.loads(record)["run_record"], json.loads(result)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35)
    args = parser.parse_args()
    out = {}
    for workload, why in workloads.WORKLOADS.items():
        record, result = run(workload, args.seed, args.seconds, 0)
        traced_record, traced = run(workload, args.seed, args.seconds, 1)
        layers = {k: v["value"] for k, v in traced["metrics"].items()}
        self_s = {k[:-len(".self_s")]: v for k, v in layers.items() if k.endswith(".self_s")}
        record.pop("operations")
        out[workload] = {
            "why": why,
            "correct": result["correct"] and traced["correct"],
            "end_to_end": {k: v["value"] for k, v in result["metrics"].items()},
            "run_record": record,
            "per_layer": layers,
            "self_s_ranked": sorted(self_s, key=self_s.get, reverse=True)[:5],
            "traced_pass_ref_s": traced_record["traced_pass_ref_s"],
        }
    print(json.dumps(out, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
