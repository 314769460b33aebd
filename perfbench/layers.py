"""Which public functions the traced run wraps, and the per-layer metrics.

Each layer is named after its module.  :class:`LayerTrace` patches the
layer's public classes for the length of a traced run, collects the
simulators, servers and clients built meanwhile, and folds their own
counters (``sim.perf`` probes, ``ServerStats``, ``ClientStats``) in
after each unit of work so the worlds can be freed.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.cellular import RadioModem, TowerRegistry
from repro.clientlib import SenseAidClient
from repro.core import DeviceSelector, SenseAidServer
from repro.environment import RandomWaypointMobility, StaticMobility
from repro.serverlib import CrowdsensingAppServer
from repro.sim import EventQueue, Simulator
from repro.storage import MemoryBackend

from perfbench.tracing import Tracer

#: (owner, method, traced name, keep full spans?)
_SIM_PATCHES = (
    (Simulator, "run", "sim.run", True),
    (EventQueue, "push", "sim.heap_push", False),
    (EventQueue, "pop", "sim.heap_pop", False),
    # receive() delegates to transmit(), so wrapping transmit counts
    # every transfer once.
    (RadioModem, "transmit", "cellular.modem_transmit", False),
    (TowerRegistry, "refresh_positions", "cellular.refresh_positions", True),
    (TowerRegistry, "refresh_attachments", "cellular.refresh_attachments", True),
    (TowerRegistry, "devices_within", "cellular.devices_within", True),
    (StaticMobility, "position_at", "environment.position_at", False),
    (RandomWaypointMobility, "position_at", "environment.position_at", False),
    (SenseAidServer, "qualified_devices", "core.qualified_devices", True),
    (DeviceSelector, "select", "core.selector_select", True),
    (SenseAidServer, "receive_sensed_data", "core.receive_sensed_data", False),
    (SenseAidClient, "send_sense_data", "clientlib.send_sense_data", False),
)

#: Public app-server calls; spans on the service path carry request ids.
_SERVERLIB_PATCHES = (
    (CrowdsensingAppServer, "receive_sensed_data", "serverlib.receive"),
    (CrowdsensingAppServer, "mean_value", "serverlib.query"),
    (CrowdsensingAppServer, "reading_count", "serverlib.query"),
    (CrowdsensingAppServer, "distinct_devices", "serverlib.query"),
)

#: Storage methods wrapped on the class when the backend is built
#: inside the program (the simulation workloads).
_STORAGE_METHODS = ("put_doc", "get_doc", "append_log", "log_count", "flush")

#: Every per-layer metric, in BENCHMARK.json order: (name, unit).
PER_LAYER = (
    ("sim.events", "count"),
    ("sim.heap_push", "count"),
    ("sim.heap_pop", "count"),
    ("sim.run.self_s", "s"),
    ("cellular.modem_transmit.calls", "count"),
    ("cellular.modem_transmit.self_s", "s"),
    ("cellular.refresh_positions.calls", "count"),
    ("cellular.refresh_positions.items", "count"),
    ("cellular.refresh_positions.self_s", "s"),
    ("cellular.refresh_attachments.calls", "count"),
    ("cellular.refresh_attachments.items", "count"),
    ("cellular.refresh_attachments.self_s", "s"),
    ("cellular.devices_within.calls", "count"),
    ("cellular.devices_within.max_items", "count"),
    ("cellular.devices_within.self_s", "s"),
    ("environment.position_at.calls", "count"),
    ("core.edge_refresh.calls", "count"),
    ("core.edge_refresh.items", "count"),
    ("core.edge_refresh.wall_s", "s"),
    ("core.qualified_devices.calls", "count"),
    ("core.qualified_devices.self_s", "s"),
    ("core.selector_select.calls", "count"),
    ("core.selector_select.self_s", "s"),
    ("core.receive_sensed_data.calls", "count"),
    ("core.receive_sensed_data.self_s", "s"),
    ("core.scheduled_ratio", "ratio"),
    ("core.delivery_ratio", "ratio"),
    ("clientlib.send_sense_data.calls", "count"),
    ("clientlib.uploads_retried", "count"),
    ("serverlib.receive.calls", "count"),
    ("serverlib.receive.self_s", "s"),
    ("serverlib.query.calls", "count"),
    ("serverlib.query.self_s", "s"),
    ("serverlib.accepted_ratio", "ratio"),
    ("storage.append_log.calls", "count"),
    ("storage.append_log.self_s", "s"),
    ("storage.scan_log.calls", "count"),
    ("storage.scan_log.items", "count"),
    ("storage.scan_log.self_s", "s"),
    ("storage.put_doc.calls", "count"),
    ("storage.put_doc.self_s", "s"),
    ("storage.get_doc.calls", "count"),
    ("storage.get_doc.self_s", "s"),
    ("storage.flush.calls", "count"),
    ("storage.flush.self_s", "s"),
    ("service.queue_wait_ms.p50", "ms"),
    ("service.queue_wait_ms.p99", "ms"),
    ("service.handler.self_s", "s"),
    ("service.front.self_s", "s"),
    ("service.shed", "count"),
    ("service.failed", "count"),
    ("service.gen_late_p99_ms", "ms"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
)


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, 0.0 when nothing was attempted."""
    return numerator / denominator if denominator else 0.0


class LayerTrace:
    """Installs the layer wrappers on a :class:`Tracer` for one run."""

    def __init__(self, tracer: Tracer, *, service_path: bool) -> None:
        self.tracer = tracer
        self._sims: List[Simulator] = []
        self._servers: List[SenseAidServer] = []
        self._clients: List[SenseAidClient] = []
        self.counts: Dict[str, float] = {
            "events": 0,
            "edge_calls": 0,
            "edge_items": 0,
            "edge_wall_s": 0.0,
            "positions_items": 0,
            "attachments_items": 0,
            "within_max_items": 0,
            "issued": 0,
            "scheduled": 0,
            "assignments": 0,
            "data_points": 0,
            "uploads_retried": 0,
        }
        #: On the service path the storage backend is a TimedBackend
        #: handed to ``build_world`` and every call keeps its span; on
        #: the simulation path backends are built inside the program,
        #: so the backend class is wrapped and calls are aggregated.
        self._service_path = service_path

    def __enter__(self) -> "LayerTrace":
        tracer = self.tracer
        for owner, attr, name, span in _SIM_PATCHES:
            tracer.patch(owner, attr, name, span=span)
        for owner, attr, name in _SERVERLIB_PATCHES:
            tracer.patch(owner, attr, name, span=self._service_path)
        if not self._service_path:
            for method in _STORAGE_METHODS:
                tracer.patch(MemoryBackend, method, f"storage.{method}")
            tracer.patch(MemoryBackend, "scan_log", "storage.scan_log", iterator=True)
        tracer.collect_instances(Simulator, self._sims)
        tracer.collect_instances(SenseAidServer, self._servers)
        tracer.collect_instances(SenseAidClient, self._clients)
        return self

    def __exit__(self, *exc_info) -> None:
        self.tracer.unpatch()
        self.harvest()

    def harvest(self) -> None:
        """Fold the counters of every world built so far, then drop them."""
        counts = self.counts
        for sim in self._sims:
            counts["events"] += sim.events_processed
            probes = sim.perf.probes()
            edge = probes.get("server.edge_refresh")
            if edge is not None:
                counts["edge_calls"] += edge.calls
                counts["edge_items"] += edge.items
                counts["edge_wall_s"] += edge.wall_s
            for probe, key in (
                ("registry.refresh_positions", "positions_items"),
                ("registry.refresh_attachments", "attachments_items"),
            ):
                if probe in probes:
                    counts[key] += probes[probe].items
            within = probes.get("registry.devices_within")
            if within is not None:
                counts["within_max_items"] = max(
                    counts["within_max_items"], within.max_items
                )
        for server in self._servers:
            stats = server.stats
            counts["issued"] += stats.requests_issued
            counts["scheduled"] += stats.requests_scheduled
            counts["assignments"] += stats.assignments
            counts["data_points"] += stats.data_points
        for client in self._clients:
            counts["uploads_retried"] += client.stats.uploads_retried
        self._sims.clear()
        self._servers.clear()
        self._clients.clear()

    def metrics(self, service: Optional[Dict[str, float]] = None) -> Dict[str, float]:
        """Every per-layer metric except the ``trace.*`` pair."""
        stats = self.tracer.stats
        counts = self.counts

        def calls(name: str) -> int:
            return stats[name].calls if name in stats else 0

        def self_s(name: str) -> float:
            return stats[name].self_s if name in stats else 0.0

        values: Dict[str, float] = {
            "sim.events": counts["events"],
            "sim.heap_push": calls("sim.heap_push"),
            "sim.heap_pop": calls("sim.heap_pop"),
            "sim.run.self_s": self_s("sim.run"),
            "cellular.refresh_positions.items": counts["positions_items"],
            "cellular.refresh_attachments.items": counts["attachments_items"],
            "cellular.devices_within.max_items": counts["within_max_items"],
            "environment.position_at.calls": calls("environment.position_at"),
            "core.edge_refresh.calls": counts["edge_calls"],
            "core.edge_refresh.items": counts["edge_items"],
            "core.edge_refresh.wall_s": counts["edge_wall_s"],
            "core.scheduled_ratio": ratio(counts["scheduled"], counts["issued"]),
            "core.delivery_ratio": ratio(counts["data_points"], counts["assignments"]),
            "clientlib.uploads_retried": counts["uploads_retried"],
            "storage.scan_log.items": stats["storage.scan_log"].items
            if "storage.scan_log" in stats
            else 0,
        }
        for name in (
            "cellular.modem_transmit",
            "cellular.refresh_positions",
            "cellular.refresh_attachments",
            "cellular.devices_within",
            "core.qualified_devices",
            "core.selector_select",
            "core.receive_sensed_data",
            "serverlib.receive",
            "serverlib.query",
            "storage.append_log",
            "storage.scan_log",
            "storage.put_doc",
            "storage.get_doc",
            "storage.flush",
        ):
            values[f"{name}.calls"] = calls(name)
            values[f"{name}.self_s"] = self_s(name)
        values["clientlib.send_sense_data.calls"] = calls("clientlib.send_sense_data")
        service_values = {
            "serverlib.accepted_ratio": 0.0,
            "service.queue_wait_ms.p50": 0.0,
            "service.queue_wait_ms.p99": 0.0,
            "service.handler.self_s": 0.0,
            "service.front.self_s": 0.0,
            "service.shed": 0,
            "service.failed": 0,
            "service.gen_late_p99_ms": 0.0,
        }
        service_values.update(service or {})
        values.update(service_values)
        return values
