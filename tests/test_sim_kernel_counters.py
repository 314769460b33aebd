"""Exact work counters of the event kernel on fixed-seed worlds.

A refactor of the kernel (heap keys, the ``run`` loop, cancellation)
must fire the same events and push the same number of them.  Event
counts do not jitter, so these pins catch a change in the work done
without any wall-clock noise.  Update an integer only with a change
that is meant to alter the simulated behaviour, and say why.
"""

from __future__ import annotations

import pytest

from repro.core.config import ServerMode
from repro.experiments.common import (
    ScenarioConfig,
    TaskParams,
    run_periodic_arm,
    run_sense_aid_arm,
)
from repro.faults import reset_global_ids
from repro.sim.engine import Simulator
from repro.sim.events import EventQueue

TASKS = [TaskParams(area_radius_m=1000.0, spatial_density=3, sampling_period_s=300.0)]


@pytest.fixture
def kernel_counters(monkeypatch):
    """Count ``EventQueue.push`` calls and collect every simulator run."""
    counts = {"push": 0}
    sims = []
    push = EventQueue.push
    run = Simulator.run

    def counting_push(self, *args, **kwargs):
        counts["push"] += 1
        return push(self, *args, **kwargs)

    def recording_run(self, *args, **kwargs):
        if self not in sims:
            sims.append(self)
        return run(self, *args, **kwargs)

    monkeypatch.setattr(EventQueue, "push", counting_push)
    monkeypatch.setattr(Simulator, "run", recording_run)
    reset_global_ids()
    return counts, sims


@pytest.mark.parametrize(
    ("arm", "events", "pushes"),
    [
        ("sense-aid-complete", 2820, 3403),
        ("periodic", 3419, 3986),
    ],
)
def test_twenty_device_arm_counters(kernel_counters, arm, events, pushes):
    counts, sims = kernel_counters
    config = ScenarioConfig(seed=7)
    if arm == "periodic":
        run_periodic_arm(config, TASKS)
    else:
        run_sense_aid_arm(config, TASKS, ServerMode.COMPLETE)
    assert len(sims) == 1
    assert sims[0].events_processed == events
    assert counts["push"] == pushes
