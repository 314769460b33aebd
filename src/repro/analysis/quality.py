"""Data-quality metrics: completeness, density satisfaction, latency.

The paper's energy comparisons all carry the caveat "under the
prerequisite of not harming crowdsensing data": Sense-Aid is only
allowed to win on energy if applications still get the samples they
asked for, on time.  This module quantifies that prerequisite so
experiments and benchmarks can assert it instead of assuming it.
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Sequence

from repro.baselines.common import BaselineFramework
from repro.core.server import SenseAidServer, SensedDataPoint


@dataclass(frozen=True)
class QualityReport:
    """How well a framework met a campaign's data requirements."""

    requests_total: int
    requests_satisfied: int
    data_points: int

    @property
    def completeness(self) -> float:
        """Fraction of sampling instants that got their full density."""
        if self.requests_total == 0:
            return 1.0
        return self.requests_satisfied / self.requests_total


def sense_aid_quality(server: SenseAidServer) -> QualityReport:
    """Quality from a Sense-Aid server's own accounting.

    A request counts as satisfied when every assigned device's reading
    arrived (the server's ``requests_satisfied`` counter); waitlisted
    requests that expired count against completeness.
    """
    return QualityReport(
        requests_total=server.stats.requests_issued,
        requests_satisfied=server.stats.requests_satisfied,
        data_points=server.stats.data_points,
    )


def baseline_quality(framework: BaselineFramework) -> QualityReport:
    """Quality for a baseline, from its collector's delivered uploads.

    A request is satisfied when at least the task's spatial density of
    distinct devices delivered readings for it.
    """
    density_by_task: Dict[int, int] = {
        task.task_id: task.spatial_density for task in framework.tasks
    }
    devices_per_request: Dict[str, set] = defaultdict(set)
    task_of_request: Dict[str, int] = {}
    for message in framework.collector.delivered:
        request_id = message.payload.get("request_id")
        device_id = message.payload.get("device_id")
        if request_id is None or device_id is None:
            continue
        devices_per_request[request_id].add(device_id)
        task_id = int(request_id.split("-")[0][len("task"):])
        task_of_request[request_id] = task_id
    satisfied = 0
    for request_id in framework.stats.participants_per_request:
        task_id = task_of_request.get(request_id)
        needed = density_by_task.get(task_id, 1) if task_id is not None else 1
        if len(devices_per_request.get(request_id, ())) >= needed:
            satisfied += 1
    return QualityReport(
        requests_total=framework.stats.requests_issued,
        requests_satisfied=satisfied,
        data_points=framework.stats.data_points_delivered,
    )


@dataclass(frozen=True)
class LatencyStats:
    """Distribution of sensing→delivery latency, in seconds."""

    count: int
    mean_s: float
    max_s: float
    p95_s: float


class StreamingLatency:
    """Exact count/mean/max/p95 of delivery latency, folded one at a time.

    Feed it latencies (or reading points) in arrival order.  The p95 is
    exact, which on an arbitrary stream forces retaining the values: a
    "keep only the top ``n - int(0.95·n)``" heap fails when that target
    size grows past an element it already discarded (twenty 1.0s then
    0.0s — the second 1.0 becomes the p95 but is gone).  So each
    latency is kept as one clamped 8-byte double in an ``array('d')``
    — the readings themselves never materialise.  :meth:`stats` sorts
    the retained values once and takes the mean over that sorted
    order, the max as its last element, and the p95 as element
    ``min(n-1, int(0.95·n))``.
    """

    def __init__(self) -> None:
        #: One clamped latency per observation, 8 bytes each.
        self._values = array("d")

    @property
    def count(self) -> int:
        return len(self._values)

    def add(self, latency_s: float) -> None:
        self._values.append(max(0.0, latency_s))

    def add_point(self, point: SensedDataPoint) -> None:
        """Fold one ``SensedDataPoint`` (sensing→delivery latency)."""
        self.add(point.delivered_at - point.sensed_at)

    def stats(self) -> LatencyStats:
        count = self.count
        if count == 0:
            return LatencyStats(count=0, mean_s=0.0, max_s=0.0, p95_s=0.0)
        ordered = sorted(self._values)
        return LatencyStats(
            count=count,
            mean_s=sum(ordered) / count,
            max_s=ordered[-1],
            p95_s=ordered[min(count - 1, int(0.95 * count))],
        )


def delivery_latency(points: Sequence[SensedDataPoint]) -> LatencyStats:
    """Latency from sensor acquisition to application delivery."""
    latency = StreamingLatency()
    for point in points:
        latency.add_point(point)
    return latency.stats()
