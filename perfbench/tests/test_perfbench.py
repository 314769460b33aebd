"""The benchmark's own checks, at tiny sizes.

Run from the root of a checkout::

    python -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

from perfbench import workloads
from perfbench.layers import PER_LAYER, LayerTrace
from perfbench.tracing import TimedBackend, Tracer
from repro.storage import MemoryBackend, check_backend_conformance

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


@pytest.fixture(autouse=True)
def memory_datastore(monkeypatch):
    monkeypatch.setenv("REPRO_DATASTORE", "memory")


def run_tiny(name, **kwargs):
    return workloads.WORKLOADS[name](7, 1.0, size="tiny", once=True, **kwargs)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_workload_passes_its_checks(name):
    out = run_tiny(name)
    assert out.attempted > 0
    assert out.failed == 0, out.problems
    assert out.units and out.ops
    assert all(start <= end for start, end in out.ops)


def test_committed_digests_cover_the_tiny_sizes_and_two_seeds():
    digests = workloads.load_digests()
    for seed in ("7", "11"):
        assert set(digests["figure_book"][seed]) == set(workloads.BOOK_SIZES["full"])
        for size in workloads.CITY_SIZES:
            assert seed in digests["city_2k"][size]


def test_a_wrong_output_is_counted_as_failed():
    digests = workloads.load_digests()
    assert workloads.check_book_output("fig1", 7, "not the survey", digests)
    assert workloads.check_book_output("fig1", 12345, "not the survey", digests)


@pytest.mark.parametrize("name", ["figure_book", "city_2k"])
def test_traced_run_reproduces_the_untraced_digests(name):
    plain = run_tiny(name)
    tracer = Tracer()
    traced = run_tiny(name, tracer=tracer)
    assert traced.failed == 0, traced.problems
    assert traced.digests == plain.digests
    assert tracer.violations == 0
    assert tracer.span_check() == 0
    metrics = traced.layer_values
    assert {name for name, _ in PER_LAYER} - set(metrics) == {
        "trace.overhead_s",
        "trace.spans",
    }
    assert metrics["sim.events"] > 0
    assert metrics["sim.heap_pop"] > 0
    assert all(value >= 0 for value in metrics.values())


@pytest.mark.parametrize("name", ["service_ingest", "service_query"])
def test_traced_service_run_is_correct_and_spans_carry_request_ids(name):
    tracer = Tracer()
    out = run_tiny(name, tracer=tracer)
    assert out.failed == 0, out.problems
    assert tracer.violations == 0 and tracer.span_check() == 0
    handler_spans = [s for s in tracer.spans if s[0] == "service.handler"]
    assert handler_spans and all(s[4] for s in handler_spans)
    children = [s for s in tracer.spans if s[3] >= 0]
    assert children
    assert all(s[4] == tracer.spans[s[3]][4] for s in children)
    metrics = out.layer_values
    assert metrics["serverlib.accepted_ratio"] == 1.0
    assert metrics["storage.append_log.calls"] > 0
    assert metrics["sim.events"] == 0


def test_timed_backend_passes_the_conformance_kit():
    tracer = Tracer()
    checks = check_backend_conformance(lambda: TimedBackend(MemoryBackend(), tracer))
    assert "flush" in checks
    assert tracer.stats["storage.append_log"].calls > 0
    assert tracer.stats["storage.scan_log"].items > 0
    assert tracer.violations == 0


def test_self_time_excludes_children_and_is_never_negative():
    tracer = Tracer()

    def leaf():
        time.sleep(0.002)
        return [1, 2, 3]

    traced_leaf = tracer.wrap("leaf", leaf, span=True)

    def parent():
        time.sleep(0.002)
        return traced_leaf() + list(tracer.wrap_iter("rows", lambda: iter(range(4)))())

    tracer.wrap("parent", parent, span=True)()
    parent_stat, leaf_stat = tracer.stats["parent"], tracer.stats["leaf"]
    assert leaf_stat.calls == 1
    assert tracer.stats["rows"].items == 4
    assert 0 <= parent_stat.self_s <= parent_stat.total_s - leaf_stat.total_s + 1e-9
    assert parent_stat.self_s >= 0.0015
    assert tracer.spans[1][3] == 0  # the leaf's parent is the first span
    assert tracer.span_check() == 0 and tracer.violations == 0


def test_layer_trace_restores_the_wrapped_classes():
    from repro.sim import EventQueue

    push = EventQueue.__dict__["push"]
    with LayerTrace(Tracer(), service_path=False):
        assert EventQueue.__dict__["push"] is not push
    assert EventQueue.__dict__["push"] is push


def test_stepped_city_run_matches_one_run_to_the_end():
    shape = workloads.CITY_SIZES["tiny"]
    stepped = workloads.build_city(7, shape)
    workloads.run_city(stepped, [])
    whole = workloads.build_city(7, shape)
    whole.sim.run(until=whole.until_s)
    whole.server.shutdown()
    assert workloads.city_digest(stepped) == workloads.city_digest(whole)


def test_driver_prints_one_json_line(tmp_path):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "service_ingest",
         "--seed", "3", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    assert set(result["metrics"]) == {m["name"] for m in bench["end_to_end"]}
    assert [m["name"] for m in bench["per_layer"]] == [name for name, _ in PER_LAYER]


def test_driver_fails_without_the_program(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench")
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "figure_book",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_speed_gauge_samples_while_running_and_restores_the_signal():
    import signal

    from perfbench.gauge import SpeedGauge

    previous = signal.getsignal(signal.SIGALRM)
    with SpeedGauge() as gauge:
        start = time.perf_counter()
        deadline = start + 0.3
        while time.perf_counter() < deadline:
            pass
        end = time.perf_counter()
    assert gauge.samples >= 4
    assert signal.getsignal(signal.SIGALRM) is previous
    assert gauge.speed(start, end) > 0
    assert gauge.reference_s(start, end) == pytest.approx(
        (end - start) * gauge.speed(start, end)
    )
