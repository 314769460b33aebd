"""The four benchmark workloads.

Every workload repeats a unit of fixed work until ``seconds`` have
passed (at least once) and returns an :class:`Outcome`: the host-clock
interval of each unit, world construction and operation, and the
correctness tally.  ``run.py`` turns intervals into times with the
speed gauge.  An *operation* is what a user waits for:

- ``figure_book``: one experiment of ``repro run all``;
- ``city_2k``: ten simulated seconds of the 2,000-device city;
- ``service_ingest`` / ``service_query``: one service request.

All inputs come from ``seed``.  The program receives only the generated
inputs; outputs are checked against committed digests
(``digests.json``) or, for the service, against what the benchmark
itself sent.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import gc
import hashlib
import io
import json
import math
import os
import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.cellular import CellularNetwork, TowerRegistry
from repro.cellular.enodeb import grid_towers
from repro.cli import RUN_ORDER, run_experiment
from repro.clientlib import SenseAidClient
from repro.core import OverloadPolicy, SenseAidConfig, SenseAidServer, ServerMode
from repro.devices import SensorType
from repro.environment import Campus, Point
from repro.environment.campus import STUDY_SITES
from repro.environment.population import PopulationConfig, build_population
from repro.faults import reset_global_ids
from repro.serverlib import CrowdsensingAppServer
from repro.service import (
    AppServerBackend,
    RequestKind,
    SenseAidService,
    ServiceConfig,
    ServiceRequest,
    build_world,
)
from repro.sim import Simulator
from repro.storage import MemoryBackend

from perfbench.layers import LayerTrace, ratio
from perfbench.tracing import TimedBackend, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS_PATH = os.path.join(HERE, "digests.json")

#: Experiments per figure-book size; "full" is exactly ``repro run all``.
BOOK_SIZES: Dict[str, Tuple[str, ...]] = {
    "full": tuple(RUN_ORDER),
    "tiny": ("fig1", "fig2", "fig6", "fig14"),
}
#: Experiments that take no seed: their digest is the same for every seed.
SEEDLESS_EXPERIMENTS = ("fig1", "fig2", "fig6")


@dataclass(frozen=True)
class CitySize:
    devices: int
    tower_rows: int
    duration_s: float
    side_m: float = 9000.0


CITY_SIZES = {
    "full": CitySize(devices=2000, tower_rows=5, duration_s=3600.0),
    "tiny": CitySize(devices=200, tower_rows=3, duration_s=600.0),
}
#: Simulated seconds per city operation (one latency sample).
CITY_STEP_S = 10.0


@dataclass(frozen=True)
class ServiceSize:
    slots: int
    devices: int
    #: Open loop: sensing rounds per unit, round period and deliveries
    #: per round (the offered rate is ``round_size / round_s``).
    rounds: int = 0
    round_s: float = 0.0
    round_size: int = 0
    #: Closed loop: requests per unit.
    batch: int = 0


INGEST_SIZES = {
    "full": ServiceSize(slots=16, devices=2000, rounds=4, round_s=0.5, round_size=1000),
    "tiny": ServiceSize(slots=4, devices=20, rounds=5, round_s=0.1, round_size=20),
}
QUERY_SIZES = {
    "full": ServiceSize(slots=16, devices=500, batch=1500),
    "tiny": ServiceSize(slots=4, devices=20, batch=400),
}
#: At most two client coroutines and two service consumers (2 cores).
CLIENTS = 2
CONSUMERS = 2


#: A host-clock interval, ``(start, end)`` in ``time.perf_counter`` seconds.
Interval = Tuple[float, float]


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    #: One ``(start, end, operations completed)`` per unit of fixed work.
    units: List[Tuple[float, float, int]] = field(default_factory=list)
    #: Units follow an arrival schedule (open loop): their length is set
    #: by the schedule in host time, not by how fast the host runs.
    paced: bool = False
    #: One interval per world construction (set-up beyond imports).
    builds: List[Interval] = field(default_factory=list)
    #: One interval per completed operation (its latency).
    ops: List[Interval] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    #: Output digests, one per checked unit (figure book: per experiment).
    digests: List[str] = field(default_factory=list)
    #: Per-layer metrics of the last unit (traced runs only).
    layer_values: Dict[str, float] = field(default_factory=dict)

    def fail(self, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(problem)


def settle() -> None:
    """Collect the previous unit's garbage before the next unit starts.

    Otherwise the collector frees the last world in the middle of the
    next unit, and whether that pause lands inside a measurement is
    chance.  Collections the unit itself causes are still measured.
    """
    gc.collect()


def sha256_json(value: Any) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_digests() -> Dict[str, Any]:
    with open(DIGESTS_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in (0, 100]."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


# ----------------------------------------------------------------------
# figure_book
# ----------------------------------------------------------------------


def book_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_book_experiment(name: str, seed: int) -> str:
    """One experiment's printed output (captured, not echoed)."""
    with contextlib.redirect_stdout(io.StringIO()):
        return run_experiment(name, seed)


def check_book_output(
    name: str, seed: int, text: str, digests: Dict[str, Any]
) -> Optional[str]:
    """Why an experiment's output is wrong, or None when it is right.

    Seeds with a committed digest are checked exactly.  For other seeds
    the seed-free experiments still are; the rest must print a
    non-empty report without NaNs or tracebacks.
    """
    digest = book_digest(text)
    expected = digests["figure_book"].get(str(seed), {}).get(name)
    if expected is None and name in SEEDLESS_EXPERIMENTS:
        expected = digests["figure_book"]["7"][name]
    if expected is not None:
        if digest != expected:
            return f"{name}: digest {digest[:12]} != committed {expected[:12]}"
        return None
    lowered = text.lower()
    if not text.strip() or "nan" in lowered.split() or "traceback" in lowered:
        return f"{name}: empty or malformed report"
    return None


def figure_book(
    seed: int,
    seconds: float,
    *,
    size: str = "full",
    tracer: Optional[Tracer] = None,
    once: bool = False,
) -> Outcome:
    names = BOOK_SIZES[size]
    digests = load_digests()
    out = Outcome()
    layers = LayerTrace(tracer, service_path=False) if tracer else None
    with layers or contextlib.nullcontext():
        deadline = time.perf_counter() + seconds
        while True:
            settle()
            unit_start = time.perf_counter()
            for name in names:
                started = time.perf_counter()
                text = run_book_experiment(name, seed)
                out.ops.append((started, time.perf_counter()))
                if layers is not None:
                    layers.harvest()
                out.attempted += 1
                out.digests.append(book_digest(text))
                problem = check_book_output(name, seed, text, digests)
                if problem is not None:
                    out.fail(problem)
            out.units.append((unit_start, time.perf_counter(), len(names)))
            if once or time.perf_counter() >= deadline:
                break
    if layers is not None:
        out.layer_values = layers.metrics()
    return out


# ----------------------------------------------------------------------
# city_2k
# ----------------------------------------------------------------------


def city_campus(side_m: float) -> Campus:
    """A square city: four district centres and a 5x5 waypoint grid."""
    city = Campus(width_m=side_m, height_m=side_m)
    quarter, three_quarters = side_m * 0.25, side_m * 0.75
    centres = (
        Point(quarter, quarter),
        Point(three_quarters, quarter),
        Point(quarter, three_quarters),
        Point(three_quarters, three_quarters),
    )
    for name, position in zip(STUDY_SITES, centres):
        city.add_site(name, position)
    step = side_m / 6.0
    for row in range(1, 6):
        for col in range(1, 6):
            city.add_waypoint(Point(col * step, row * step))
    return city


@dataclass
class CityWorld:
    sim: Simulator
    server: SenseAidServer
    app: CrowdsensingAppServer
    until_s: float


def build_city(seed: int, size: CitySize) -> CityWorld:
    """2,000 devices, 5x5 towers, four barometer tasks, Complete mode."""
    reset_global_ids()
    sim = Simulator(seed=seed)
    campus = city_campus(size.side_m)
    registry = TowerRegistry(
        grid_towers(
            campus.width_m,
            campus.height_m,
            rows=size.tower_rows,
            cols=size.tower_rows,
        )
    )
    network = CellularNetwork(sim)
    fleet = build_population(
        sim, campus, PopulationConfig(size=size.devices, site_home_fraction=0.2)
    )
    server = SenseAidServer(
        sim, registry, network, SenseAidConfig(mode=ServerMode.COMPLETE)
    )
    for device in fleet:
        SenseAidClient(sim, device, server, network).register()
    app = CrowdsensingAppServer(server, "city-scale")
    for site in STUDY_SITES:
        app.task(
            SensorType.BAROMETER,
            campus.site(site).position,
            area_radius_m=800.0,
            spatial_density=5,
            sampling_period_s=300.0,
            sampling_duration_s=size.duration_s,
        )
    return CityWorld(sim, server, app, until_s=size.duration_s + 60.0)


def city_digest(world: CityWorld) -> str:
    """The selection log and the server's outcome counters."""
    return sha256_json(
        {
            "selection_log": [
                dataclasses.asdict(event) for event in world.server.selection_log
            ],
            "stats": dataclasses.asdict(world.server.stats),
        }
    )


def run_city(world: CityWorld, steps: List[Interval]) -> None:
    """Run the world to the end, one timed simulated minute at a time."""
    t = 0.0
    while t < world.until_s:
        t = min(t + CITY_STEP_S, world.until_s)
        started = time.perf_counter()
        world.sim.run(until=t)
        steps.append((started, time.perf_counter()))
    world.server.shutdown()


def city_2k(
    seed: int,
    seconds: float,
    *,
    size: str = "full",
    tracer: Optional[Tracer] = None,
    once: bool = False,
) -> Outcome:
    shape = CITY_SIZES[size]
    expected = load_digests()["city_2k"][size].get(str(seed))
    out = Outcome()
    layers = LayerTrace(tracer, service_path=False) if tracer else None
    with layers or contextlib.nullcontext():
        deadline = time.perf_counter() + seconds
        while True:
            settle()
            started = time.perf_counter()
            world = build_city(seed, shape)
            out.builds.append((started, time.perf_counter()))
            steps_before = len(out.ops)
            started = time.perf_counter()
            run_city(world, out.ops)
            out.units.append((started, time.perf_counter(), len(out.ops) - steps_before))
            digest = city_digest(world)
            del world
            if layers is not None:
                layers.harvest()
            out.attempted += 1
            out.digests.append(digest)
            if expected is not None and digest != expected:
                out.fail(f"city digest {digest[:12]} != committed {expected[:12]}")
            elif expected is None and digest != out.digests[0]:
                out.fail("city digest differs between passes of one seed")
            if once or time.perf_counter() >= deadline:
                break
    if layers is not None:
        out.layer_values = layers.metrics()
    return out


# ----------------------------------------------------------------------
# service workloads
# ----------------------------------------------------------------------


def service_config() -> ServiceConfig:
    """Two consumers, no modelled service time, admission never sheds
    at the offered loads (it would count as a failure)."""
    return ServiceConfig(
        queue_capacity=65536,
        consumers=CONSUMERS,
        concurrency_slots=CONSUMERS,
        service_time_s=0.0,
        overload=OverloadPolicy(queue_capacity=1_000_000, service_rate_per_s=1e9),
    )


@dataclass
class ServiceWorld:
    service: SenseAidService
    app: CrowdsensingAppServer
    #: slot -> task id of the task created for it in set-up.
    tasks: Dict[int, int]


async def build_service(
    seed: int, slots: int, tracer: Optional[Tracer]
) -> ServiceWorld:
    """World, service and one live task per slot (created through the API)."""
    reset_global_ids()
    storage = MemoryBackend()
    if tracer is not None:
        storage = TimedBackend(storage, tracer)
    sim, _server, app = build_world(seed=seed, storage=storage)
    backend = AppServerBackend(sim, app, slots=slots)
    handler = backend.handle
    if tracer is not None:
        handler = traced_handler(tracer, handler)
    service = SenseAidService(handler, service_config())
    await service.start()
    tasks: Dict[int, int] = {}
    for slot in range(slots):
        response = await service.submit(
            RequestKind.CREATE_TASK,
            {"slot": slot, "radius_m": 800.0, "density": 2, "duration_s": 3600.0},
        )
        if not response.ok or response.result.get("noop"):
            raise RuntimeError(f"set-up could not create the task of slot {slot}")
        tasks[slot] = response.result["task_id"]
    return ServiceWorld(service, app, tasks)


def traced_handler(tracer: Tracer, handle: Callable) -> Callable:
    """The backend handler as a span that stamps its request id."""
    wrapped = tracer.wrap("service.handler", handle, span=True)

    def handler(request: ServiceRequest) -> Any:
        tracer.request_id = request.request_id
        try:
            return wrapped(request)
        finally:
            tracer.request_id = None

    return handler


@dataclass
class Planned:
    offset_s: float
    kind: RequestKind
    payload: Dict[str, Any]


def plan_deliveries(rng: random.Random, size: ServiceSize) -> Dict[str, Any]:
    return {
        "slot": rng.randrange(size.slots),
        "value": round(rng.uniform(980.0, 1040.0), 6),
        "device_hash": f"dev{rng.randrange(size.devices):04d}",
    }


def unit_rng(seed: int, unit: int) -> random.Random:
    """The generator of one unit's traffic: every unit gets fresh inputs."""
    return random.Random(seed * 1_000_003 + unit)


def ingest_schedule(seed: int, unit: int, size: ServiceSize) -> List[Planned]:
    """Sensing rounds: every ``round_s`` a round of devices all deliver
    at once, whatever the service is doing (an open loop)."""
    rng = unit_rng(seed, unit)
    return [
        Planned(round_ * size.round_s, RequestKind.DELIVER_DATA, plan_deliveries(rng, size))
        for round_ in range(size.rounds)
        for _ in range(size.round_size)
    ]


def query_schedule(seed: int, unit: int, size: ServiceSize) -> List[Planned]:
    """Half deliveries, a quarter per-task and a quarter all-task queries,
    in a random order."""
    rng = unit_rng(seed, unit)
    quarter = size.batch // 4
    schedule = [
        Planned(0.0, RequestKind.QUERY_DATA, {"slot": rng.randrange(size.slots)})
        for _ in range(quarter)
    ]
    schedule += [Planned(0.0, RequestKind.QUERY_DATA, {}) for _ in range(quarter)]
    schedule += [
        Planned(0.0, RequestKind.DELIVER_DATA, plan_deliveries(rng, size))
        for _ in range(size.batch - 2 * quarter)
    ]
    rng.shuffle(schedule)
    return schedule


class Ledger:
    """What the benchmark has sent and seen completed, to judge answers.

    A query may legitimately observe any delivery that completed before
    it was sent and none that was sent after it completed; those two
    counts bound every answer.
    """

    def __init__(self, slots: int) -> None:
        self.sent: Dict[Any, int] = {slot: 0 for slot in range(slots)}
        self.sent["all"] = 0
        self.done = dict(self.sent)
        self.values: Dict[int, List[float]] = {slot: [] for slot in range(slots)}
        self.lo: Dict[Any, float] = {}
        self.hi: Dict[Any, float] = {}
        self.devices_sent: Dict[str, int] = {}
        self.devices_done: Dict[str, int] = {}

    def delivery_sent(self, payload: Dict[str, Any]) -> None:
        slot, value = payload["slot"], payload["value"]
        self.sent[slot] += 1
        self.sent["all"] += 1
        self.values[slot].append(value)
        for key in (slot, "all"):
            self.lo[key] = min(self.lo.get(key, value), value)
            self.hi[key] = max(self.hi.get(key, value), value)
        device = payload["device_hash"]
        self.devices_sent[device] = self.devices_sent.get(device, 0) + 1

    def delivery_done(self, payload: Dict[str, Any]) -> None:
        self.done[payload["slot"]] += 1
        self.done["all"] += 1
        device = payload["device_hash"]
        self.devices_done[device] = self.devices_done.get(device, 0) + 1

    def snapshot_done(self, key: Any) -> Tuple[int, int]:
        return self.done[key], len(self.devices_done)

    def check_query(
        self, payload: Dict[str, Any], result: Dict[str, Any], before: Tuple[int, int]
    ) -> Optional[str]:
        key = payload.get("slot", "all")
        low, high = before[0], self.sent[key]
        readings, mean = result["readings"], result["mean"]
        if not low <= readings <= high:
            return f"query {key}: {readings} readings outside [{low}, {high}]"
        if readings == 0:
            if mean is not None:
                return f"query {key}: mean {mean} over no readings"
        elif mean is None or not self.lo[key] <= mean <= self.hi[key]:
            return f"query {key}: mean {mean} outside the values sent"
        if key == "all":
            distinct = result["distinct_devices"]
            if not before[1] <= distinct <= len(self.devices_sent):
                return f"query all: {distinct} distinct devices out of bounds"
        return None


def check_final_state(world: ServiceWorld, ledger: Ledger, out: Outcome) -> None:
    """Per task: reading count, the exact values, and their mean."""
    for slot, task_id in world.tasks.items():
        out.attempted += 1
        sent = ledger.values[slot]
        stored = [p.value for p in world.app.readings_for_task(task_id)]
        count = world.app.reading_count(task_id)
        mean = world.app.mean_value(task_id)
        expected_mean = math.fsum(sent) / len(sent) if sent else None
        if count != len(sent) or sorted(stored) != sorted(sent):
            out.fail(f"task {task_id}: {count} readings stored, {len(sent)} sent")
        elif (mean is None) != (expected_mean is None) or (
            mean is not None and not math.isclose(mean, expected_mean, rel_tol=1e-9)
        ):
            out.fail(f"task {task_id}: mean {mean} != sent mean {expected_mean}")


class RequestLog:
    """Per-request measurements of one service unit."""

    def __init__(self) -> None:
        self.queue_s: List[float] = []
        self.service_latency_s = 0.0
        self.shed = 0
        self.failed = 0
        self.deliveries = 0
        self.accepted = 0
        self.ok = 0


async def send(
    world: ServiceWorld,
    planned: Planned,
    ledger: Ledger,
    log: RequestLog,
    out: Outcome,
    origin: float,
) -> None:
    """Submit one request, time it from ``origin`` and judge the answer."""
    payload = planned.payload
    delivery = planned.kind is RequestKind.DELIVER_DATA
    if delivery:
        ledger.delivery_sent(payload)
        log.deliveries += 1
    else:
        before = ledger.snapshot_done(payload.get("slot", "all"))
    response = await world.service.submit(planned.kind, payload)
    done = time.perf_counter()
    out.attempted += 1
    log.service_latency_s += response.latency_s
    if not response.ok:
        if response.shed:
            log.shed += 1
        else:
            log.failed += 1
        out.fail(f"{planned.kind.value}: {response.status.value} {response.error}")
        return
    log.ok += 1
    out.ops.append((origin, done))
    log.queue_s.append(response.queue_delay_s)
    if delivery:
        if response.result.get("accepted"):
            log.accepted += 1
            ledger.delivery_done(payload)
        else:
            out.fail(f"delivery to slot {payload['slot']} not accepted")
        return
    problem = ledger.check_query(payload, response.result, before)
    if problem is not None:
        out.fail(problem)


async def open_loop(
    world: ServiceWorld,
    schedule: List[Planned],
    ledger: Ledger,
    log: RequestLog,
    out: Outcome,
) -> List[float]:
    """Fire each request at its due time; returns how late each fired.

    A request is timed from its due time, so a stall that delays the
    generator is charged to every request it delays.  Finished requests
    are dropped at once so the generator holds no growing state.
    """
    loop = asyncio.get_running_loop()
    in_flight = set()
    errors: List[BaseException] = []
    late: List[float] = []

    def finished(task: "asyncio.Task[None]") -> None:
        in_flight.discard(task)
        if not task.cancelled() and task.exception() is not None:
            errors.append(task.exception())

    start = time.perf_counter()
    for planned in schedule:
        due = start + planned.offset_s
        while True:
            ahead = due - time.perf_counter()
            if ahead <= 0:
                break
            # Sleep through long gaps, then yield until the exact due
            # time (the loop's timer resolution is about a millisecond).
            await asyncio.sleep(ahead - 0.002 if ahead > 0.003 else 0)
        late.append(time.perf_counter() - due)
        task = loop.create_task(send(world, planned, ledger, log, out, due))
        in_flight.add(task)
        task.add_done_callback(finished)
    await asyncio.gather(*in_flight)
    if errors:
        raise errors[0]
    return late


async def closed_loop(
    world: ServiceWorld,
    schedule: List[Planned],
    ledger: Ledger,
    log: RequestLog,
    out: Outcome,
) -> None:
    """``CLIENTS`` callers, each sending its next request on a reply."""
    pending = iter(schedule)

    async def client() -> None:
        for planned in pending:
            await send(world, planned, ledger, log, out, time.perf_counter())

    await asyncio.gather(*(client() for _ in range(CLIENTS)))


def service_layer_metrics(
    log: RequestLog, handler: Tuple[float, float], late: List[float]
) -> Dict[str, float]:
    """The service and serverlib per-layer metrics of a traced unit.

    ``handler`` is the unit's (total, self) seconds in the handler.
    """
    return {
        "serverlib.accepted_ratio": ratio(log.accepted, log.deliveries),
        "service.queue_wait_ms.p50": percentile(log.queue_s, 50) * 1e3,
        "service.queue_wait_ms.p99": percentile(log.queue_s, 99) * 1e3,
        "service.handler.self_s": handler[1],
        "service.front.self_s": log.service_latency_s - handler[0],
        "service.shed": log.shed,
        "service.failed": log.failed,
        "service.gen_late_p99_ms": percentile(late, 99) * 1e3 if late else 0.0,
    }


def _service_workload(
    seed: int,
    seconds: float,
    size: ServiceSize,
    tracer: Optional[Tracer],
    *,
    open_loop_run: bool,
    once: bool,
) -> Outcome:
    out = Outcome(paced=open_loop_run)
    layers = LayerTrace(tracer, service_path=True) if tracer else None

    async def build() -> ServiceWorld:
        started = time.perf_counter()
        world = await build_service(seed, size.slots, tracer)
        out.builds.append((started, time.perf_counter()))
        return world

    def handler_seconds() -> Tuple[float, float]:
        stat = tracer.stats.get("service.handler") if tracer else None
        return (stat.total_s, stat.self_s) if stat else (0.0, 0.0)

    async def main() -> None:
        deadline = time.perf_counter() + seconds
        unit = 0
        while True:
            settle()
            world = await build()
            ledger = Ledger(size.slots)
            log = RequestLog()
            before = handler_seconds()
            started = time.perf_counter()
            if open_loop_run:
                schedule = ingest_schedule(seed, unit, size)
                late = await open_loop(world, schedule, ledger, log, out)
            else:
                schedule = query_schedule(seed, unit, size)
                late = []
                await closed_loop(world, schedule, ledger, log, out)
            out.units.append((started, time.perf_counter(), log.ok))
            after = handler_seconds()
            await world.service.stop()
            if layers is not None:
                # Before the final check, whose own queries would count.
                spent = (after[0] - before[0], after[1] - before[1])
                layers.harvest()
                out.layer_values = layers.metrics(service_layer_metrics(log, spent, late))
            check_final_state(world, ledger, out)
            unit += 1
            if once or time.perf_counter() >= deadline:
                break

    with layers or contextlib.nullcontext():
        asyncio.run(main())
    return out


def service_ingest(
    seed: int,
    seconds: float,
    *,
    size: str = "full",
    tracer: Optional[Tracer] = None,
    once: bool = False,
) -> Outcome:
    return _service_workload(
        seed, seconds, INGEST_SIZES[size], tracer, open_loop_run=True, once=once
    )


def service_query(
    seed: int,
    seconds: float,
    *,
    size: str = "full",
    tracer: Optional[Tracer] = None,
    once: bool = False,
) -> Outcome:
    return _service_workload(
        seed, seconds, QUERY_SIZES[size], tracer, open_loop_run=False, once=once
    )


WORKLOADS: Dict[str, Callable[..., Outcome]] = {
    "figure_book": figure_book,
    "city_2k": city_2k,
    "service_ingest": service_ingest,
    "service_query": service_query,
}

#: Modules whose import each workload pays for (timed in fresh processes).
IMPORTS: Dict[str, Tuple[str, ...]] = {
    "figure_book": ("repro.cli",),
    "city_2k": (
        "repro.sim",
        "repro.cellular",
        "repro.core",
        "repro.clientlib",
        "repro.serverlib",
        "repro.environment.population",
    ),
    "service_ingest": ("repro.service", "repro.storage"),
    "service_query": ("repro.service", "repro.storage"),
}
