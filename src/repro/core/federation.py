"""Distributed edge deployment of Sense-Aid (paper §3.2).

"Logically, each of these entities is centralized.  In its physical
instantiation, each entity is distributed into multiple instances,
which are resident at the edge of the cellular network.  Each instance
will be located spatially close to the mobile devices that are
participating in that crowdsensing activity.  This aspect of the
design is key to high performance, i.e., low latency ...  Distribution
however results in higher complexity."

:class:`FederatedSenseAid` is that physical instantiation: one
:class:`~repro.core.server.SenseAidServer` per edge region (a Voronoi
cell around the instance's site), devices registered with the instance
serving their current location, tasks routed to the instance owning
the task centre, and a periodic rebalancer that hands devices over as
they move between regions — the distribution complexity the paper
warns about, made concrete.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.cellular.enodeb import ENodeB, TowerRegistry
from repro.cellular.network import CellularNetwork
from repro.core.config import SenseAidConfig
from repro.core.server import SenseAidServer, SensedDataPoint
from repro.core.tasks import TaskSpec
from repro.environment.geometry import Point
from repro.sim.engine import Simulator
from repro.sim.processes import PeriodicProcess


@dataclass(frozen=True)
class EdgeRegionSpec:
    """One edge instance's placement."""

    region_id: str
    center: Point
    #: Towers backing this instance (each instance owns its slice of
    #: the RAN).  If empty, a single tower is synthesized at ``center``.
    towers: Sequence[ENodeB] = field(default_factory=tuple)


class FederatedSenseAid:
    """A fleet of Sense-Aid edge instances with device handoff."""

    def __init__(
        self,
        sim: Simulator,
        network: CellularNetwork,
        regions: Sequence[EdgeRegionSpec],
        config: Optional[SenseAidConfig] = None,
        *,
        rebalance_period_s: float = 60.0,
    ) -> None:
        if not regions:
            raise ValueError("at least one edge region is required")
        ids = [r.region_id for r in regions]
        if len(set(ids)) != len(ids):
            raise ValueError("region ids must be unique")
        if rebalance_period_s <= 0:
            raise ValueError("rebalance_period_s must be positive")
        self._sim = sim
        self._network = network
        self._regions: Dict[str, EdgeRegionSpec] = {}
        self._instances: Dict[str, SenseAidServer] = {}
        for region in regions:
            towers = list(region.towers)
            if not towers:
                towers = [
                    ENodeB(
                        tower_id=f"enb-{region.region_id}",
                        position=region.center,
                        coverage_radius_m=5000.0,
                    )
                ]
            registry = TowerRegistry(towers)
            self._regions[region.region_id] = region
            self._instances[region.region_id] = SenseAidServer(
                sim, registry, network, config
            )
        self._clients: Dict[str, object] = {}
        self._home: Dict[str, str] = {}
        self.handoffs = 0
        self.failovers = 0
        self._task_meta: Dict[int, dict] = {}
        self._failed_over: set = set()
        self._failover_monitor: Optional[PeriodicProcess] = None
        self._rebalancer = PeriodicProcess(
            sim, rebalance_period_s, self.rebalance
        )

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------

    @property
    def region_ids(self) -> List[str]:
        return sorted(self._regions)

    def instance(self, region_id: str) -> SenseAidServer:
        try:
            return self._instances[region_id]
        except KeyError:
            raise KeyError(
                f"unknown region {region_id!r}; available: {self.region_ids}"
            ) from None

    def region_for(self, point: Point, *, healthy_only: bool = False) -> str:
        """The Voronoi owner of a location.

        With ``healthy_only`` crashed instances are skipped, so routing
        (registration, rebalancing, task submission) lands on a live
        instance; if every instance is down the plain owner is returned.
        """
        candidates = list(self._regions.values())
        if healthy_only:
            healthy = [
                r for r in candidates if not self._instances[r.region_id].crashed
            ]
            if healthy:
                candidates = healthy
        return min(
            candidates, key=lambda r: r.center.distance_to(point)
        ).region_id

    def instance_for(self, point: Point) -> SenseAidServer:
        return self._instances[self.region_for(point)]

    # ------------------------------------------------------------------
    # Devices
    # ------------------------------------------------------------------

    def register(self, client) -> str:
        """Register a client with the instance serving its location.

        ``client`` is a :class:`~repro.clientlib.SenseAidClient` (or
        anything exposing ``device``, ``bind_server``, ``register``).
        Returns the chosen region id.
        """
        region_id = self.region_for(client.device.position(), healthy_only=True)
        client.bind_server(self._instances[region_id])
        client.register()
        self._clients[client.device.device_id] = client
        self._home[client.device.device_id] = region_id
        return region_id

    def deregister(self, device_id: str) -> None:
        client = self._clients.pop(device_id, None)
        self._home.pop(device_id, None)
        if client is not None and client.registered:
            client.deregister()

    def home_region(self, device_id: str) -> str:
        try:
            return self._home[device_id]
        except KeyError:
            raise KeyError(f"device {device_id!r} is not registered") from None

    def rebalance(self) -> int:
        """Hand over devices that moved into another instance's region.

        Returns the number of handoffs performed.
        """
        moved = 0
        for device_id, client in self._clients.items():
            # Churn guard: a client that deregistered or died between
            # rebalance ticks must not be resurrected on the target
            # instance by a handover it never asked for.
            if not client.registered or not client.powered:
                continue
            current = self._home[device_id]
            target = self.region_for(client.device.position(), healthy_only=True)
            if target == current:
                continue
            client.migrate(self._instances[target])
            self._home[device_id] = target
            moved += 1
        self.handoffs += moved
        return moved

    # ------------------------------------------------------------------
    # Tasks
    # ------------------------------------------------------------------

    def submit_task(
        self, task: TaskSpec, data_callback: Callable[[SensedDataPoint], None]
    ) -> str:
        """Route a task to the edge instance owning its centre.

        Returns the owning region id (the task id is on the spec).
        """
        region_id = self.region_for(task.center, healthy_only=True)
        self._instances[region_id].submit_task(task, data_callback)
        now = self._sim.now
        self._task_meta[task.task_id] = {
            "region": region_id,
            "task": task,
            "callback": data_callback,
            "end_time": task.window_end(now, now),
        }
        return region_id

    def delete_task(self, region_id: str, task_id: int) -> None:
        self.instance(region_id).delete_task(task_id)
        self._task_meta.pop(task_id, None)

    # ------------------------------------------------------------------
    # Failover (paper §8: consistency and failures in data collection)
    # ------------------------------------------------------------------

    def enable_failover(self, check_period_s: float = 30.0) -> None:
        """Start monitoring instances and fail their work over on crash."""
        if check_period_s <= 0:
            raise ValueError("check_period_s must be positive")
        if self._failover_monitor is not None:
            raise RuntimeError("failover monitoring already enabled")
        self._failover_monitor = PeriodicProcess(
            self._sim, check_period_s, self._failover_check
        )

    def backup_region_for(self, region_id: str) -> Optional[str]:
        """The nearest healthy sibling, or None if none is up."""
        center = self._regions[region_id].center
        candidates = [
            r
            for r in self._regions.values()
            if r.region_id != region_id
            and not self._instances[r.region_id].crashed
        ]
        if not candidates:
            return None
        return min(
            candidates, key=lambda r: r.center.distance_to(center)
        ).region_id

    def _failover_check(self) -> None:
        for region_id, instance in self._instances.items():
            if instance.crashed and region_id not in self._failed_over:
                self._take_over(region_id)

    def _take_over(self, failed_region: str) -> None:
        backup_region = self.backup_region_for(failed_region)
        if backup_region is None:
            return  # nothing healthy to fail over to
        self._failed_over.add(failed_region)
        backup = self._instances[backup_region]
        now = self._sim.now
        # Move the failed instance's devices to the backup.  Clients
        # that deregistered or died stay where they are: carrying them
        # over would resurrect sessions their users already ended.
        for device_id, home in list(self._home.items()):
            if home != failed_region:
                continue
            client = self._clients[device_id]
            if not client.registered or not client.powered:
                continue
            client.migrate(backup)
            self._home[device_id] = backup_region
            self.handoffs += 1
        # Re-submit the unexpired remainder of every affected task.
        for task_id, meta in list(self._task_meta.items()):
            if meta["region"] != failed_region:
                continue
            if meta["end_time"] - now <= 0:
                continue
            remainder = meta["task"].remainder(now, meta["end_time"])
            if remainder is None:
                continue
            # Ownership moves to the backup: scrub the task from the
            # failed instance's (persistent) datastore so a later
            # recovery cannot double-schedule it.
            self._instances[failed_region].delete_task(task_id)
            backup.submit_task(remainder, meta["callback"])
            meta["region"] = backup_region
            meta["task"] = remainder
        # The backup instance is healthy, so the Sense-Aid path is
        # available again (the shared flag was cleared by the crash).
        self._network.set_sense_aid_path_available(True)
        self.failovers += 1

    def recover_instance(self, region_id: str) -> None:
        """Bring a failed instance back as a new incarnation.

        The replacement process cold-restarts (epoch bump, volatile
        session state gone); its previous work stays wherever it was
        failed over to, and clients re-establish sessions through the
        epoch-resync path rather than trusting pre-crash assignments.
        """
        instance = self._instances[region_id]
        instance.restart()
        self._failed_over.discard(region_id)

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------

    def total_data_points(self) -> int:
        return sum(s.stats.data_points for s in self._instances.values())

    def total_requests_issued(self) -> int:
        return sum(s.stats.requests_issued for s in self._instances.values())

    def devices_per_region(self) -> Dict[str, int]:
        counts = {region_id: 0 for region_id in self._regions}
        for device_id, region_id in self._home.items():
            counts[region_id] += 1
        return counts

    def shutdown(self) -> None:
        self._rebalancer.stop()
        if self._failover_monitor is not None:
            self._failover_monitor.stop()
        for instance in self._instances.values():
            instance.shutdown()
