"""Exact work counters of the edge view on a fixed-seed city.

The server's edge view (tower registry position reads, re-attachments
and the last-comm sync) is the control plane's hottest path at city
scale.  It is pulled on demand: positions are re-read only when a
scheduling instant queries the region, the sync runs only when a
request is scheduled or waiting, and selection never re-attaches a
device.  These counts do not jitter, so the pins catch extra work
without any wall-clock noise.  A work pin moves only with a change that
removes or adds work and says so; the event count, the selections and
their digest move only with a change meant to alter the simulated
behaviour.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

from repro.cellular.enodeb import TowerRegistry, grid_towers
from repro.cellular.network import CellularNetwork
from repro.clientlib import SenseAidClient
from repro.core.config import SenseAidConfig, ServerMode
from repro.core.server import SenseAidServer
from repro.devices.sensors import SensorType
from repro.environment.campus import STUDY_SITES, Campus
from repro.environment.geometry import Point
from repro.environment.population import PopulationConfig, build_population
from repro.faults import reset_global_ids
from repro.serverlib import CrowdsensingAppServer
from repro.sim.engine import Simulator
from tests.test_core_server import make_setup, make_spec

SIDE_M = 9000.0
DURATION_S = 600.0


def _city() -> Campus:
    """A square city: four district centres and a 5x5 waypoint grid."""
    city = Campus(width_m=SIDE_M, height_m=SIDE_M)
    quarter, three_quarters = SIDE_M * 0.25, SIDE_M * 0.75
    centres = (
        Point(quarter, quarter),
        Point(three_quarters, quarter),
        Point(quarter, three_quarters),
        Point(three_quarters, three_quarters),
    )
    for name, position in zip(STUDY_SITES, centres):
        city.add_site(name, position)
    step = SIDE_M / 6.0
    for row in range(1, 6):
        for col in range(1, 6):
            city.add_waypoint(Point(col * step, row * step))
    return city


def _run_city(seed: int):
    """200 walking devices, 3x3 towers, four barometer tasks, 600 s."""
    reset_global_ids()
    sim = Simulator(seed=seed)
    campus = _city()
    registry = TowerRegistry(
        grid_towers(campus.width_m, campus.height_m, rows=3, cols=3)
    )
    network = CellularNetwork(sim)
    fleet = build_population(
        sim, campus, PopulationConfig(size=200, site_home_fraction=0.2)
    )
    server = SenseAidServer(
        sim, registry, network, SenseAidConfig(mode=ServerMode.COMPLETE)
    )
    for device in fleet:
        SenseAidClient(sim, device, server, network).register()
    app = CrowdsensingAppServer(server, "edge-view-counters")
    for site in STUDY_SITES:
        app.task(
            SensorType.BAROMETER,
            campus.site(site).position,
            area_radius_m=800.0,
            spatial_density=5,
            sampling_period_s=300.0,
            sampling_duration_s=DURATION_S,
        )
    sim.run(until=DURATION_S + 60.0)
    server.shutdown()
    return sim, registry, server


def _selection_digest(server: SenseAidServer) -> str:
    log = [dataclasses.asdict(event) for event in server.selection_log]
    blob = json.dumps(log, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()


def test_city_edge_view_counters():
    sim, registry, server = _run_city(seed=7)
    perf = registry.perf
    assert perf.probe("registry.refresh_positions").items == 52
    assert perf.probe("registry.refresh_attachments").items == 0
    assert perf.probe("server.edge_refresh").items == 400
    assert sim.events_processed == 2426
    assert len(server.selection_log) == 8
    assert _selection_digest(server) == (
        "d5f71751b5c206fc29c10f2a8a568a7a4f6af9439a1c4d010fac1c434ed1ce56"
    )


def _wait_check_counts(sim: Simulator):
    perf = sim.perf
    return (
        perf.probe("server.wait_check").calls,
        perf.probe("server.edge_refresh").calls,
        perf.probe("server.edge_refresh.memo_hit").calls,
    )


def test_empty_wait_queue_pulls_no_edge_view():
    sim = Simulator(seed=3)
    server, _, _, _ = make_setup(sim, n_devices=4)
    sim.run(until=300.0)
    checks, refreshes, memo_hits = _wait_check_counts(sim)
    assert len(server.wait_queue) == 0
    assert checks >= 9
    assert (refreshes, memo_hits) == (0, 0)
    assert sim.perf.probe("registry.refresh_positions").calls == 0


def test_waitlisted_requests_pull_one_edge_view_per_check():
    sim = Simulator(seed=3)
    server, _, _, _ = make_setup(sim, n_devices=1)
    for radius in (900.0, 1000.0):  # two tasks, both short of devices
        server.submit_task(
            make_spec(
                area_radius_m=radius, spatial_density=3, sampling_duration_s=600.0
            ),
            lambda reading: None,
        )
    sim.run(until=50.0)
    assert len(server.wait_queue) == 2
    before = _wait_check_counts(sim)
    sim.run(until=290.0)
    after = _wait_check_counts(sim)
    checks, refreshes, memo_hits = (a - b for a, b in zip(after, before))
    assert len(server.wait_queue) == 2
    assert checks == 8  # t = 60, 90, ..., 270
    assert refreshes == checks
    assert memo_hits == checks  # the second waiting request reuses it
