#!/usr/bin/env python3
"""Run one workload over several seeds and report each metric's spread.

Usage, from the root of a checkout::

    python3 perfbench/spread.py --workload city_2k --seeds 1-5 --seconds 20

The spread is the distance between the first and third quartiles of the
runs' values (``statistics.quantiles(values, n=4)``) as a share of
their median; compare it with the metric's ``bound`` in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-5")
    parser.add_argument("--seconds", type=int, default=None)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    seconds = args.seconds or bench["run_seconds"]
    low, _, high = args.seeds.partition("-")
    values = {}
    for seed in range(int(low), int(high or low) + 1):
        done = subprocess.run(
            [*bench["command"], "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: INCORRECT\n{done.stderr}", file=sys.stderr)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + " ".join(
            f"{name}={metric['value']:.4g}" for name, metric in result["metrics"].items()
        ), flush=True)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for name, series in values.items():
        q1, q2, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / q2
        print(f"{name:16s} median={q2:.5g} spread={spread:.3f} bound={bounds.get(name)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
