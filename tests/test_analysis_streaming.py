"""The streaming accumulators must agree with their batch twins, exactly.

``delivery_latency`` and ``grid_field`` are folds over their
accumulators, so those twins are also checked against an independent
reference (the sorted-sum statistics, per-cell ``idw_interpolate``).
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.fairness import fairness_report
from repro.analysis.heatmap import SpatialSample, grid_field, idw_interpolate
from repro.analysis.quality import delivery_latency
from repro.analysis.streaming import (
    ClaimsAccumulator,
    StreamingHeatmap,
    StreamingLatency,
    StreamingMean,
    StreamingSelectionCounts,
)
from repro.analysis.truth import discover_truth
from repro.core.server import SensedDataPoint
from repro.devices.sensors import SensorType
from repro.environment.geometry import Point


def _point(value: float, *, device="dev", task_id=1, latency=0.5, t=0.0):
    return SensedDataPoint(
        request_id=f"task{task_id}-r0",
        task_id=task_id,
        sensor_type=SensorType.BAROMETER,
        value=value,
        sensed_at=t,
        delivered_at=t + latency,
        device_hash=device,
    )


class TestStreamingSelectionCounts:
    def test_matches_batch_fairness_report(self):
        rng = random.Random(11)
        devices = [f"d{i}" for i in range(7)]
        acc = StreamingSelectionCounts()
        counts = {}
        for _ in range(50):
            selected = rng.sample(devices, rng.randint(1, 3))
            acc.add(selected)
            for device_id in selected:
                counts[device_id] = counts.get(device_id, 0) + 1
        assert acc.counts() == counts
        assert acc.report() == fairness_report(counts)
        assert acc.events == 50

    def test_accepts_stored_event_dicts(self):
        acc = StreamingSelectionCounts()
        acc.add_event({"selected": ["d0", "d1"], "qualified": ["d0", "d1"]})
        assert acc.counts() == {"d0": 1, "d1": 1}


class TestStreamingMean:
    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.floats(
                min_value=-1e6, max_value=1e6,
                allow_nan=False, allow_infinity=False,
            ),
            max_size=60,
        )
    )
    def test_bit_identical_to_left_to_right_sum(self, values):
        acc = StreamingMean()
        for value in values:
            acc.add(value)
        if not values:
            assert acc.mean is None
        else:
            assert acc.mean == sum(values) / len(values)  # exact


class TestStreamingLatency:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.floats(
                min_value=-2.0, max_value=500.0,
                allow_nan=False, allow_infinity=False,
            ),
            min_size=0, max_size=120,
        )
    )
    def test_exact_p95_max_count(self, latencies):
        points = [_point(1.0, latency=lat, t=10.0) for lat in latencies]
        batch = delivery_latency(points)
        acc = StreamingLatency()
        for point in points:
            acc.add_point(point)
        stream = acc.stats()
        assert stream == batch  # exact, mean included
        ordered = sorted(max(0.0, p.delivered_at - p.sensed_at) for p in points)
        if ordered:
            assert stream.count == len(ordered)
            assert stream.mean_s == sum(ordered) / len(ordered)
            assert stream.max_s == ordered[-1]
            assert stream.p95_s == ordered[min(len(ordered) - 1, int(0.95 * len(ordered)))]
        else:
            assert stream.count == 0

    def test_compact_retention(self):
        acc = StreamingLatency()
        for i in range(10_000):
            acc.add(float(i % 311))
        # Exact quantiles force retaining the values, but only as one
        # 8-byte double each — never the readings that carried them.
        assert len(acc._values) == 10_000
        assert acc._values.itemsize == 8
        assert acc._values.typecode == "d"


class TestStreamingHeatmap:
    def test_bit_identical_to_grid_field(self):
        rng = random.Random(3)
        samples = [
            SpatialSample(
                Point(rng.uniform(0, 800), rng.uniform(0, 400)),
                rng.uniform(950, 1050),
            )
            for _ in range(25)
        ]
        acc = StreamingHeatmap(800.0, 400.0, cols=10, rows=5)
        for sample in samples:
            acc.add(sample)
        grid = acc.grid()
        assert grid == grid_field(samples, 800.0, 400.0, cols=10, rows=5)
        for r in range(5):
            y = 400.0 * (5 - 0.5 - r) / 5
            for c in range(10):
                at = Point(800.0 * (c + 0.5) / 10, y)
                assert grid[r][c] == idw_interpolate(samples, at)  # exact

    def test_needs_a_sample(self):
        with pytest.raises(ValueError):
            StreamingHeatmap(100.0, 100.0).grid()


class TestClaimsAccumulator:
    def test_matches_batch_truth_discovery(self):
        rng = random.Random(7)
        claims = {}
        acc = ClaimsAccumulator()
        for source in ["good-1", "good-2", "liar"]:
            for item in range(4):
                value = 1000.0 + item if "good" in source else 1200.0
                value += rng.uniform(-0.5, 0.5)
                claims.setdefault(source, {})[item] = value
                acc.add_claim(source, item, value)
        batch = discover_truth(claims)
        stream = acc.discover()
        assert stream.truths == batch.truths
        assert stream.weights == batch.weights
        assert acc.sources == 3

    def test_add_point_defaults_item_to_task(self):
        acc = ClaimsAccumulator()
        acc.add_point(_point(1013.0, device="hash-a", task_id=9))
        assert acc.claims() == {"hash-a": {9: 1013.0}}
        assert acc.readings == 1
