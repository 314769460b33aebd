"""The spatial index's exactness contract.

The uniform grid is a pure accelerator: every query must return
bit-identical results to the brute-force scan, including ordering
(distance from the centre, then device id), and a full simulation must
produce the same selection log whether the index is on or off.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cellular.enodeb import ENodeB, TowerRegistry, grid_towers
from repro.cellular.network import CellularNetwork
from repro.cellular.spatial import UniformGridIndex
from repro.clientlib import SenseAidClient
from repro.core.config import SenseAidConfig, ServerMode
from repro.core.server import SenseAidServer
from repro.devices.sensors import SensorType
from repro.environment.campus import STUDY_SITES, default_campus
from repro.environment.geometry import Point
from repro.environment.mobility import RandomWaypointMobility, StaticMobility
from repro.environment.population import PopulationConfig, build_population
from repro.serverlib import CrowdsensingAppServer
from repro.sim.engine import Simulator
from tests.conftest import make_device
from tests.test_federation import _Teleporter


class _Dot:
    """Minimal registry device: id + position, no modem needed."""

    def __init__(self, device_id: str, position: Point) -> None:
        self.device_id = device_id
        self._position = position
        self.modem = None
        self.mobility = StaticMobility(position)

    def position(self) -> Point:
        return self._position


def _registry(cell_size_m: float = 500.0, **kwargs) -> TowerRegistry:
    return TowerRegistry(
        grid_towers(3000.0, 3000.0, rows=2, cols=2),
        cell_size_m=cell_size_m,
        **kwargs,
    )


class TestUniformGridIndex:
    def test_rejects_bad_cell_size(self):
        with pytest.raises(ValueError):
            UniformGridIndex(0.0)

    def test_update_moves_between_buckets(self):
        grid = UniformGridIndex(100.0)
        assert grid.update("a", Point(10.0, 10.0)) is True
        assert grid.update("a", Point(20.0, 20.0)) is False  # same cell
        assert grid.update("a", Point(150.0, 10.0)) is True
        assert len(grid) == 1
        assert grid.bucket_count() == 1

    def test_remove(self):
        grid = UniformGridIndex(100.0)
        grid.update("a", Point(0.0, 0.0))
        grid.remove("a")
        assert "a" not in grid
        assert grid.bucket_count() == 0
        grid.remove("a")  # idempotent

    def test_negative_coordinates(self):
        grid = UniformGridIndex(100.0)
        grid.update("neg", Point(-50.0, -50.0))
        assert [i for _, i in grid.query_circle(Point(0.0, 0.0), 100.0)] == ["neg"]

    def test_query_negative_radius(self):
        grid = UniformGridIndex(100.0)
        with pytest.raises(ValueError):
            grid.query_circle(Point(0.0, 0.0), -1.0)

    def test_occupancy_stats(self):
        grid = UniformGridIndex(100.0)
        for i in range(5):
            grid.update(f"d{i}", Point(10.0 * i, 0.0))
        stats = grid.occupancy_stats()
        assert stats["items"] == 5
        assert stats["max_bucket"] == 5


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n_devices=st.integers(min_value=0, max_value=120),
    cell_size=st.sampled_from([120.0, 500.0, 1500.0]),
    radius=st.floats(min_value=0.0, max_value=4000.0),
)
def test_grid_equals_scan_on_random_fleets(seed, n_devices, cell_size, radius):
    """Indexed devices_within ≡ brute-force scan, order included."""
    rng = random.Random(seed)
    registry = _registry(cell_size)
    for i in range(n_devices):
        registry.attach_device(
            _Dot(
                f"d{i}",
                Point(rng.uniform(-500.0, 3500.0), rng.uniform(-500.0, 3500.0)),
            )
        )
    center = Point(rng.uniform(0.0, 3000.0), rng.uniform(0.0, 3000.0))
    indexed = registry.devices_within(center, radius)
    scanned = registry.devices_within_scan(center, radius)
    assert indexed == scanned
    assert registry.candidate_count_within(center, radius) >= len(indexed)


class TestRegistryIncrementalRefresh:
    def test_memoised_per_instant_with_clock(self):
        sim = Simulator(seed=3)
        registry = _registry(clock=sim)
        registry.attach_device(_Dot("a", Point(100.0, 100.0)))
        registry.devices_within(Point(0.0, 0.0), 500.0)
        before = registry.perf.probe("registry.refresh_positions").calls
        registry.devices_within(Point(0.0, 0.0), 500.0)
        registry.devices_within(Point(0.0, 0.0), 900.0)
        assert registry.perf.probe("registry.refresh_positions").calls == before
        assert registry.perf.probe("registry.refresh_positions.memo_hit").calls >= 2

    def test_paused_devices_skip_position_reads(self):
        sim = Simulator(seed=3)
        registry = _registry(clock=sim)
        # StaticMobility promises the position never changes, so after
        # the first observation refreshes touch zero devices.
        for i in range(10):
            registry.attach_device(
                make_device(sim, f"d{i}", position=Point(100.0 * i, 50.0))
            )
        sim.clock.advance_to(100.0)
        registry.refresh_positions()
        probe = registry.perf.probe("registry.refresh_positions")
        assert probe.calls == 1
        assert probe.items == 0

    def test_devices_on_tower_tracks_attachment(self):
        registry = TowerRegistry(
            [
                ENodeB("west", Point(0.0, 0.0)),
                ENodeB("east", Point(2000.0, 0.0)),
            ]
        )
        walker = _Dot("w", Point(100.0, 0.0))
        registry.attach_device(walker)
        assert registry.devices_on_tower("west") == ["w"]
        assert registry.devices_on_tower("east") == []
        walker._position = Point(1900.0, 0.0)
        walker.mobility = StaticMobility(walker._position)
        registry.refresh_attachments()
        assert registry.devices_on_tower("west") == []
        assert registry.devices_on_tower("east") == ["w"]
        registry.detach_device("w")
        assert registry.devices_on_tower("east") == []
        with pytest.raises(KeyError):
            registry.devices_on_tower("north")

    def test_version_counts_membership_and_topology(self):
        registry = _registry()
        v0 = registry.version
        registry.attach_device(_Dot("a", Point(100.0, 100.0)))
        assert registry.version > v0
        v1 = registry.version
        registry.fail_tower(registry.towers[0].tower_id)
        assert registry.version > v1
        v2 = registry.version
        registry.detach_device("a")
        assert registry.version > v2

    def test_attachment_matches_nearest_after_mobility(self):
        """Cell-cached attachment ≡ exact nearest-tower, under walking."""
        sim = Simulator(seed=11)
        campus = default_campus()
        registry = TowerRegistry(
            grid_towers(campus.width_m, campus.height_m, rows=3, cols=3),
            clock=sim,
        )
        devices = build_population(sim, campus, PopulationConfig(size=30))
        for device in devices:
            registry.attach_device(device)
        for t in (600.0, 1200.0, 2400.0):
            sim.clock.advance_to(t)
            registry.refresh_attachments()
            for device in devices:
                expected = registry.nearest_tower(device.position()).tower_id
                assert registry.serving_tower(device.device_id).tower_id == expected

    def test_swapped_mobility_model_is_re_read(self):
        """A promise of the replaced model does not outlive the swap."""
        sim = Simulator(seed=3)
        registry = TowerRegistry(
            [
                ENodeB("west", Point(0.0, 0.0)),
                ENodeB("east", Point(2000.0, 0.0)),
            ],
            clock=sim,
        )
        device = make_device(sim, "d1", position=Point(100.0, 0.0))
        registry.attach_device(device)  # StaticMobility: fresh forever
        device.mobility = _Teleporter(
            Point(100.0, 0.0), Point(1900.0, 0.0), switch_at=5.0
        )
        sim.run(until=10.0)
        registry.refresh_attachments()
        assert device.position() == Point(1900.0, 0.0)
        assert registry.serving_tower("d1").tower_id == "east"
        assert registry.devices_within(Point(1900.0, 0.0), 300.0) == ["d1"]


def _run_campaign(seed: int, use_spatial_index: bool):
    from repro.faults import reset_global_ids

    reset_global_ids()
    sim = Simulator(seed=seed)
    campus = default_campus()
    registry = TowerRegistry(
        grid_towers(campus.width_m, campus.height_m, rows=3, cols=3),
        use_spatial_index=use_spatial_index,
    )
    network = CellularNetwork(sim)
    devices = build_population(sim, campus, PopulationConfig(size=40))
    server = SenseAidServer(
        sim, registry, network, SenseAidConfig(mode=ServerMode.COMPLETE)
    )
    for device in devices:
        SenseAidClient(sim, device, server, network).register()
    app = CrowdsensingAppServer(server, "equiv")
    for site in STUDY_SITES[:2]:
        app.task(
            SensorType.BAROMETER,
            campus.site(site).position,
            area_radius_m=900.0,
            spatial_density=3,
            sampling_period_s=300.0,
            sampling_duration_s=1800.0,
        )
    sim.run(until=1900.0)
    server.shutdown()
    return server


def test_selection_log_bit_identical_with_and_without_index():
    """The tentpole determinism gate: indexing must not change one bit
    of the scheduling outcome under the same seed."""
    indexed = _run_campaign(29, use_spatial_index=True)
    scanned = _run_campaign(29, use_spatial_index=False)
    assert indexed.selection_log == scanned.selection_log
    assert indexed.stats == scanned.stats


def test_random_waypoint_position_valid_until():
    rng = random.Random(5)
    mobility = RandomWaypointMobility(
        Point(0.0, 0.0), [Point(500.0, 0.0), Point(0.0, 700.0)], rng
    )
    # The itinerary starts with a pause at home: the validity window is
    # in the future and the position really is constant across it.
    until = mobility.position_valid_until(0.0)
    assert until > 0.0
    p0 = mobility.position_at(0.0)
    assert mobility.position_at(until * 0.5) == p0
    # Mid-walk the model promises nothing.
    t_walk = until + 1.0
    assert mobility.position_valid_until(t_walk) == t_walk


def _brute_nearest_id(towers, point: Point) -> str:
    """First minimum over operational towers (all of them in an outage)."""
    live = [t for t in towers if t.operational] or list(towers)
    best_id, best = None, None
    for tower in live:
        distance = tower.position.distance_to(point)
        if best is None or distance < best:
            best_id, best = tower.tower_id, distance
    return best_id


#: Tower coordinates on a coarse lattice, so layouts repeat positions
#: (exact ties) and put towers on cell edges; plus free floats.
_coordinate = st.one_of(
    st.integers(min_value=-8, max_value=8).map(lambda k: k * 250.0),
    st.floats(min_value=-3000.0, max_value=3000.0, allow_nan=False),
)
_tower_layout = st.lists(st.tuples(_coordinate, _coordinate), min_size=1, max_size=7)


@st.composite
def _query_points(draw, cell_size: float):
    """Points on cell edges and corners, cell centres, and anywhere."""
    cell = st.integers(min_value=-6, max_value=6)
    on_lattice = st.sampled_from([0.0, 0.5, 1.0, 1.0 - 1e-12, 1e-12])
    lattice = st.builds(
        lambda i, j, fx, fy: Point((i + fx) * cell_size, (j + fy) * cell_size),
        cell,
        cell,
        on_lattice,
        on_lattice,
    )
    anywhere = st.builds(Point, _coordinate, _coordinate)
    return draw(st.lists(st.one_of(lattice, anywhere), min_size=1, max_size=12))


@settings(max_examples=200, deadline=None)
@given(
    layout=_tower_layout,
    cell_size=st.sampled_from([1.0, 120.0, 250.0, 500.0, 1500.0, 4000.0]),
    toggles=st.lists(st.integers(min_value=0, max_value=6), max_size=6),
    data=st.data(),
)
def test_tower_lookup_equals_brute_force_first_minimum(
    layout, cell_size, toggles, data
):
    """Per-cell candidate lookup ≡ nearest_tower, ties and outages included."""
    towers = [ENodeB(f"t{i}", Point(x, y)) for i, (x, y) in enumerate(layout)]
    registry = TowerRegistry(towers, cell_size_m=cell_size)
    points = data.draw(_query_points(cell_size))
    # Each toggle fails or restores one tower: the cached candidates
    # must follow every topology change, down to a total outage.
    for step in [None, *toggles]:
        if step is not None:
            tower = towers[step % len(towers)]
            if tower.operational:
                registry.fail_tower(tower.tower_id)
            else:
                registry.restore_tower(tower.tower_id)
        for point in points:
            expected = _brute_nearest_id(towers, point)
            assert registry._tower_id_for(point) == expected
            assert registry.nearest_tower(point).tower_id == expected


def test_tower_lookup_breaks_exact_ties_by_registry_order():
    towers = [
        ENodeB("b", Point(1000.0, 0.0)),
        ENodeB("a", Point(0.0, 0.0)),
        ENodeB("c", Point(0.0, 0.0)),
    ]
    registry = TowerRegistry(towers, cell_size_m=500.0)
    midpoint = Point(500.0, 0.0)  # on a cell edge, equidistant from all
    assert registry._tower_id_for(midpoint) == "b"
    registry.fail_tower("b")
    assert registry._tower_id_for(midpoint) == "a"
    for tower_id in ("a", "c"):
        registry.fail_tower(tower_id)
    assert registry._tower_id_for(midpoint) == "b"  # total outage: all towers


class _ScanningWaypoints(RandomWaypointMobility):
    """Reference model: every leg lookup searches the whole itinerary."""

    def _find_leg(self, time: float):
        for leg in reversed(self._legs):
            if leg.start_time <= time <= leg.end_time:
                return leg
        return self._legs[0]


#: Ordinary waypoints, and a degenerate set whose every walk has zero
#: length — there an extension at a boundary time changes the answer.
_WAYPOINT_SETS = (
    [Point(400.0, 0.0), Point(0.0, 300.0), Point(-250.0, -250.0)],
    [Point(0.0, 0.0)],
)


def _waypoint_model(seed: int, waypoints, cls=RandomWaypointMobility):
    return cls(Point(0.0, 0.0), waypoints, random.Random(seed), mean_pause_s=60.0)


def _ask(model: RandomWaypointMobility, kind: str, time: float):
    if kind == "position":
        return model.position_at(time)
    return model.position_valid_until(time)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    waypoints=st.sampled_from(_WAYPOINT_SETS),
    data=st.data(),
)
def test_waypoint_queries_match_a_full_search_per_call(seed, waypoints, data):
    """Any interleaving of reads ≡ a same-seeded model searching per call.

    Times include the itinerary's leg boundaries, asked again after a
    later query has extended the itinerary past them.
    """
    preview = _waypoint_model(seed, waypoints)
    preview.position_at(2000.0)
    boundaries = sorted(
        {t for leg in preview._legs for t in (leg.start_time, leg.end_time)}
    )
    time = st.one_of(
        st.sampled_from(boundaries),
        st.floats(min_value=0.0, max_value=2500.0, allow_nan=False),
    )
    kind = st.sampled_from(["position", "valid_until"])
    calls = data.draw(st.lists(st.tuples(kind, time), min_size=1, max_size=25))
    model = _waypoint_model(seed, waypoints)
    reference = _waypoint_model(seed, waypoints, _ScanningWaypoints)
    for kind_, time_ in calls:
        assert _ask(model, kind_, time_) == _ask(reference, kind_, time_)
    assert model._legs == reference._legs
    assert model._rng.getstate() == reference._rng.getstate()
    # The itinerary (and so the RNG stream) depends only on the latest
    # time asked, never on the order or kind of the calls.
    fresh = _waypoint_model(seed, waypoints)
    fresh.position_at(max(time_ for _, time_ in calls))
    assert model._legs == fresh._legs
    assert model._rng.getstate() == fresh._rng.getstate()


class _Clock:
    def __init__(self) -> None:
        self.now = 0.0


class _Mover:
    """Registry device whose position follows a (swappable) mobility model."""

    def __init__(self, device_id: str, mobility, clock: _Clock) -> None:
        self.device_id = device_id
        self.mobility = mobility
        self.modem = None
        self._clock = clock

    def position(self) -> Point:
        return self.mobility.position_at(self._clock.now)


_CITY_WAYPOINTS = [Point(x, y) for x in (200.0, 1500.0, 2800.0) for y in (300.0, 2700.0)]


def _mobility(kind: str, seed: int):
    if kind == "static":
        rng = random.Random(seed)
        return StaticMobility(Point(rng.uniform(0.0, 3000.0), rng.uniform(0.0, 3000.0)))
    return RandomWaypointMobility(
        _CITY_WAYPOINTS[seed % len(_CITY_WAYPOINTS)],
        _CITY_WAYPOINTS,
        random.Random(seed),
        mean_pause_s=40.0,
    )


_fleet = st.lists(st.sampled_from(["walk", "static"]), min_size=1, max_size=12)
_operation = st.one_of(
    st.tuples(st.just("advance"), st.sampled_from([0.0, 1.0, 17.5, 60.0, 400.0])),
    st.tuples(st.just("refresh"), st.none()),
    st.tuples(st.just("within"), st.floats(min_value=0.0, max_value=2500.0)),
    st.tuples(st.just("toggle"), st.integers(min_value=0, max_value=3)),
    st.tuples(st.just("swap"), st.integers(min_value=0, max_value=11)),
    st.tuples(st.just("serving"), st.integers(min_value=0, max_value=11)),
    st.tuples(st.just("members"), st.integers(min_value=0, max_value=3)),
)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    kinds=_fleet,
    operations=st.lists(_operation, max_size=30),
)
def test_attachments_read_on_demand_equal_nearest_tower(seed, kinds, operations):
    """Pull-on-read attachments ≡ the nearest tower at the time of the read.

    Any interleaving of clock advances, position refreshes, region
    queries, mobility swaps and tower fail/restore (down to a total
    outage) leaves ``serving_tower`` and ``devices_on_tower`` equal to a
    brute-force nearest-tower evaluation of where every device is now,
    and the indexed region query equal to the scan.
    """
    clock = _Clock()
    registry = _registry(clock=clock)
    towers = registry.towers
    devices = [
        _Mover(f"d{i}", _mobility(kind, seed + i), clock)
        for i, kind in enumerate(kinds)
    ]
    for device in devices:
        registry.attach_device(device)

    def expected_tower(device) -> str:
        return _brute_nearest_id(towers, device.position())

    def check_serving(device) -> None:
        assert registry.serving_tower(device.device_id).tower_id == (
            expected_tower(device)
        )

    def check_members(tower) -> None:
        members = sorted(
            d.device_id for d in devices if expected_tower(d) == tower.tower_id
        )
        assert registry.devices_on_tower(tower.tower_id) == members

    swaps = 0
    for op, arg in operations:
        if op == "advance":
            clock.now += arg
        elif op == "refresh":
            registry.refresh_positions()
        elif op == "within":
            center = Point(1500.0, 1500.0)
            assert registry.devices_within(center, arg) == (
                registry.devices_within_scan(center, arg)
            )
        elif op == "toggle":
            tower = towers[arg % len(towers)]
            if tower.operational:
                registry.fail_tower(tower.tower_id)
            else:
                registry.restore_tower(tower.tower_id)
        elif op == "swap":
            swaps += 1
            device = devices[arg % len(devices)]
            kind = "static" if isinstance(device.mobility, RandomWaypointMobility) else "walk"
            device.mobility = _mobility(kind, seed + 1000 * swaps)
            # Fleet refreshes are memoised per instant, so a swap shows
            # from the next instant on.
            clock.now += 1.0
        elif op == "serving":
            check_serving(devices[arg % len(devices)])
        else:
            check_members(towers[arg % len(towers)])
    for device in devices:
        check_serving(device)
    for tower in towers:
        check_members(tower)
