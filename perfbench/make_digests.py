#!/usr/bin/env python3
"""Regenerate ``digests.json``: the committed outputs the benchmark checks.

Usage, from the root of a checkout::

    python3 perfbench/make_digests.py --seeds 0-31

Run it only on a commit whose outputs are known to be right: every
later run of the benchmark is judged against what it records.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text: str):
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="7,11")
    parser.add_argument("--output", default=os.path.join(HERE, "digests.json"))
    args = parser.parse_args(argv)
    if sys.path and os.path.abspath(sys.path[0]) == HERE:
        sys.path.pop(0)
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    os.environ["REPRO_DATASTORE"] = "memory"
    from perfbench import workloads

    digests = {"figure_book": {}, "city_2k": {size: {} for size in workloads.CITY_SIZES}}
    for seed in parse_seeds(args.seeds):
        digests["figure_book"][str(seed)] = {
            name: workloads.book_digest(workloads.run_book_experiment(name, seed))
            for name in workloads.BOOK_SIZES["full"]
        }
        for size, shape in workloads.CITY_SIZES.items():
            world = workloads.build_city(seed, shape)
            workloads.run_city(world, [])
            digests["city_2k"][size][str(seed)] = workloads.city_digest(world)
        print(f"seed {seed} done", file=sys.stderr, flush=True)
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(digests, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
