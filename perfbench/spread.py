#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload quality_rows --seeds 1 2 3 4 5

Runs ``run.py`` once per seed (``--trace 0``) and prints, per metric, the
median and the distance between the first and third quartile as a share of
the median (``statistics.quantiles(values, n=4)``), next to the metric's
bound from ``BENCHMARK.json`` when that file is present.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median

from measure import quartile_spread

HERE = Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3, 4, 5])
    parser.add_argument("--seconds", type=float, default=None)
    args = parser.parse_args()
    spec_path = HERE.parent / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text()) if spec_path.is_file() else {}
    bounds = {m["name"]: m["bound"] for m in spec.get("end_to_end", [])}
    seconds = args.seconds or spec.get("run_seconds", 10)
    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        child = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        result = json.loads(child.stdout.splitlines()[-1])
        if child.returncode or not result["correct"]:
            print(f"seed {seed}: run failed (exit {child.returncode})")
            return 1
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{name}={metric['value']:.4g}" for name, metric in result["metrics"].items()
        ), flush=True)
    for name, series in values.items():
        bound = bounds.get(name)
        print(f"{name}: median {median(series):.6g}, spread "
              f"{quartile_spread(series):.3f}"
              + (f" (bound {bound}, a third {bound / 3:.3f})" if bound else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
