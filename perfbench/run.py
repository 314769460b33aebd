#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload figure_book --seed 7 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs one unit of the workload untraced and one traced,
checks that both give the same outputs, writes the spans to
``.perfbench-out/`` and prints the per-layer metrics, including the
tracing overhead.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; a readable table
goes to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")

#: End-to-end metrics: (name, unit).  Every workload reports all of them.
END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("throughput_rps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
)
#: Fresh interpreters timed importing a workload's modules.
IMPORT_REPEATS = 3


def load_program():
    """Import the program from this checkout's ``src``, or exit with an error."""
    if sys.path and os.path.abspath(sys.path[0]) == HERE:
        sys.path.pop(0)  # keep the benchmark's module names out of the top level
    sys.path[:0] = [SRC, ROOT]
    # The benchmark reads and writes only inside its checkout: pin the
    # in-memory datastore whatever the environment selects.
    os.environ["REPRO_DATASTORE"] = "memory"
    os.environ.pop("REPRO_DATASTORE_DIR", None)
    try:
        import repro
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import the program from {SRC}: {exc}")
    origin = os.path.abspath(repro.__file__)
    if not origin.startswith(SRC + os.sep):
        sys.exit(f"perfbench: imported repro from {origin}, not from {SRC}")
    from perfbench import layers, workloads

    return workloads, layers


def import_intervals(modules) -> list:
    """Time importing ``modules`` in fresh interpreters.

    Returns one ``(start, end)`` host interval per interpreter, ending
    when the import did and lasting as long as the child measured.
    """
    code = (
        "import time\nstart = time.perf_counter()\n"
        + "".join(f"import {name}\n" for name in modules)
        + "print(time.perf_counter() - start)\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    intervals = []
    for _ in range(IMPORT_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", code],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        end = time.perf_counter()
        intervals.append((end - float(done.stdout.strip().splitlines()[-1]), end))
    return intervals


def unit_seconds(out, gauge):
    """Seconds of each unit: reference seconds, except that an open
    loop's length is set by its schedule in host seconds."""
    if out.paced:
        return [end - start for start, end, _ in out.units]
    return [gauge.reference_s(start, end) for start, end, _ in out.units]


def end_to_end(workloads, workload: str, seed: int, seconds: float):
    from perfbench.gauge import SpeedGauge

    with SpeedGauge() as gauge:
        imports = import_intervals(workloads.IMPORTS[workload])
        out = workloads.WORKLOADS[workload](seed, seconds)
    ref = gauge.reference_s
    pct = workloads.percentile
    walls = unit_seconds(out, gauge)
    rates, p50s, p99s = [], [], []
    first = 0
    for wall, (_, _, done) in zip(walls, out.units):
        latency = [ref(*op) for op in out.ops[first : first + done]]
        first += done
        rates.append(done / wall)
        p50s.append(pct(latency, 50))
        p99s.append(pct(latency, 99))
    setup = statistics.median(ref(*i) for i in imports)
    if out.builds:
        setup += statistics.median(ref(*i) for i in out.builds)
    values = {
        "wall_s": statistics.median(walls),
        "setup_s": setup,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "throughput_rps": statistics.median(rates),
        "latency_p50_ms": statistics.median(p50s) * 1e3,
        "latency_p99_ms": statistics.median(p99s) * 1e3,
    }
    low, high = gauge.speed_range()
    notes = {
        "units": len(out.units),
        "builds": len(out.builds),
        "latency_samples": len(out.ops),
        "error_rate": out.failed / out.attempted if out.attempted else 1.0,
        "host_wall_s": statistics.median(end - start for start, end, _ in out.units),
        "host_speed": f"{low:.2f}..{high:.2f} over {gauge.samples} samples",
    }
    return out, values, dict(END_TO_END), notes


def traced(workloads, layers, workload: str, seed: int, seconds: float):
    from perfbench.gauge import SpeedGauge
    from perfbench.tracing import Tracer

    run = workloads.WORKLOADS[workload]
    tracer = Tracer()
    with SpeedGauge() as gauge:
        plain = run(seed, seconds, once=True)
        out = run(seed, seconds, once=True, tracer=tracer)

    untraced_s = statistics.median(unit_seconds(plain, gauge))
    traced_s = statistics.median(unit_seconds(out, gauge))
    values = dict(out.layer_values)
    values["trace.overhead_s"] = traced_s - untraced_s
    values["trace.spans"] = len(tracer.spans)
    broken = tracer.violations + tracer.span_check()
    if broken:
        out.fail(f"{broken} spans with negative self time or outside their parent")
    if plain.digests != out.digests:
        out.fail("traced and untraced runs produced different outputs")
    out.attempted += plain.attempted
    out.failed += plain.failed
    out.problems[:0] = plain.problems
    start, end, _ = out.units[0]
    notes = {
        "untraced_wall_s": untraced_s,
        "traced_wall_s": traced_s,
        "traced_host_wall_s": end - start,
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"trace-{workload}-seed{seed}.json")
    tracer.dump(path, {"workload": workload, "seed": seed, "metrics": values, **notes})
    notes["spans_file"] = os.path.relpath(path, ROOT)
    return out, values, dict(layers.PER_LAYER), notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workloads, layers = load_program()
    if args.workload not in workloads.WORKLOADS:
        parser.error(
            f"unknown workload {args.workload!r}; "
            f"choose from {', '.join(workloads.WORKLOADS)}"
        )
    started = time.perf_counter()
    if args.trace:
        out, values, units, notes = traced(
            workloads, layers, args.workload, args.seed, args.seconds
        )
    else:
        out, values, units, notes = end_to_end(
            workloads, args.workload, args.seed, args.seconds
        )
    print(
        f"# {args.workload} seed={args.seed} trace={args.trace} "
        f"({time.perf_counter() - started:.1f} s)",
        file=sys.stderr,
    )
    for name, unit in units.items():
        print(f"  {name:40s} {values[name]:>16.6f} {unit}", file=sys.stderr)
    for name, value in notes.items():
        print(f"  {name:40s} {value}", file=sys.stderr)
    print(f"  attempted={out.attempted} failed={out.failed}", file=sys.stderr)
    for problem in out.problems:
        print(f"  FAILED: {problem}", file=sys.stderr)
    result = {
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {
            name: {"value": values[name], "unit": unit} for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
