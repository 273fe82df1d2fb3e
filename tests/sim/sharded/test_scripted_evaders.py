"""Scripted evaders cost their own state, not a private generator each.

``schedule_workload`` hands every evader of a script one shared
``random.Random``: a scripted evader never draws (fixed start region,
dwell timer never started), so the 2.5 KB Mersenne Twister state per
object was memory no run read.  Pinned here: the per-evader allocation,
and that a full scripted run really leaves the generator untouched —
the property that keeps the sharing free of order-dependent draws.
"""

import random
import tracemalloc
from types import SimpleNamespace

from repro.geometry import GridTiling
from repro.scenario import ScenarioConfig, build
from repro.sim import Simulator
from repro.sim.sharded.workload import (
    EvaderEnter,
    EvaderStep,
    IssueFind,
    ScriptedWorkload,
    schedule_workload,
)


class _BareSystem:
    """What ``schedule_workload`` touches and no trackers: the bytes
    allocated while the enters fire are the evaders' own."""

    def __init__(self, tiling):
        self.sim = Simulator()
        self.hierarchy = SimpleNamespace(tiling=tiling)
        self.objects = {}

    def object_evader(self, object_id):
        return self.objects.get(object_id)

    def attach_object(self, object_id, evader):
        self.objects[object_id] = evader


def test_scripted_enters_allocate_under_1kb_per_evader():
    count = 500
    system = _BareSystem(GridTiling(4))
    actions = tuple(
        EvaderEnter(float(i), (i % 4, i // 4 % 4), object_id=i) for i in range(count)
    )
    schedule_workload(system, ScriptedWorkload(actions=actions, horizon=float(count)))
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        system.sim.run()
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(system.objects) == count
    assert (after - before) / count < 1024


def test_full_scripted_run_never_draws():
    scenario = build(ScenarioConfig(r=2, max_level=2, seed=5, n_objects=3))
    system = scenario.system
    actions = (
        EvaderEnter(0.0, (0, 0), 0),
        EvaderEnter(1.0, (3, 3), 1),
        EvaderStep(10.0, (1, 1), 0),
        EvaderEnter(12.0, (0, 3), 2),
        IssueFind(20.25, (3, 0), 1, object_id=2),
        EvaderStep(30.0, (2, 3), 1),
        EvaderStep(40.0, (1, 2), 2),
        IssueFind(50.5, (0, 0), 2, object_id=1),
    )
    schedule_workload(system, ScriptedWorkload(actions=actions, horizon=50.5))
    system.sim.run()
    evaders = [system.object_evader(i) for i in range(3)]
    assert [e.region for e in evaders] == [(1, 1), (2, 3), (1, 2)]
    assert all(r.completed for r in system.finds.records.values())
    assert len({id(e.rng) for e in evaders}) == 1
    assert evaders[0].rng.getstate() == random.Random(0).getstate()
