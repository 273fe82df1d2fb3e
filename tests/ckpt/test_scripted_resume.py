"""Snapshot/resume of a multi-object *scripted* world is bit-identical.

The script's evaders share the one generator ``schedule_workload``
creates, and the enters still on the queue hold it in their closure:
the cuts below fall between enters, so the snapshot must keep evaders
already placed and evaders yet to be created on the same generator.
"""

import pytest

from repro.ckpt import restore_scenario, run_fingerprint, snapshot_scenario
from repro.core.tracker import ObjectLane
from repro.scenario import ScenarioConfig, build
from repro.workload import (
    EvaderEnter,
    EvaderStep,
    IssueFind,
    ScriptedWorkload,
    schedule_workload,
)

SCRIPT = ScriptedWorkload(
    actions=(
        EvaderEnter(0.0, (0, 0), 0),
        EvaderEnter(5.0, (3, 3), 1),
        EvaderStep(12.0, (1, 1), 0),
        EvaderEnter(30.0, (0, 3), 2),
        IssueFind(33.25, (3, 0), 1, object_id=1),
        EvaderStep(45.0, (2, 3), 1),
        EvaderStep(52.0, (1, 2), 2),
        IssueFind(60.5, (0, 0), 2, object_id=2),
    ),
    horizon=60.5,
)


def _scripted():
    scenario = build(ScenarioConfig(r=2, max_level=2, seed=7, n_objects=3))
    schedule_workload(scenario.system, SCRIPT)
    return scenario


def _outcome(scenario):
    system = scenario.system
    evaders = [system.object_evader(i) for i in range(3)]
    return (
        run_fingerprint(scenario),
        [(e.region, e.moves_made) for e in evaders],
        len({id(e.rng) for e in evaders}),
    )


@pytest.mark.parametrize("cut_at", [12.5, 33.5], ids=["mid-grow", "mid-find"])
def test_scripted_multi_object_resume_is_bit_identical(cut_at):
    straight = _scripted()
    straight.sim.run()
    scenario = _scripted()
    scenario.sim.run_until(cut_at)
    resumed = restore_scenario(snapshot_scenario(scenario))
    resumed.sim.run()
    assert _outcome(resumed) == _outcome(straight)
    assert _outcome(straight)[1:] == ([((1, 1), 1), ((2, 3), 1), ((1, 2), 1)], 1)


def _secondary_only(scenario):
    """Extra lanes kept as their secondary pointers, over the built trackers."""
    trackers = scenario.system.trackers.built.values()
    return sum(type(lane) is not ObjectLane for t in trackers for lane in t._lanes.values())


def test_a_cut_while_lanes_hold_only_secondary_pointers_resumes_bit_identical():
    straight = _scripted()
    straight.sim.run()
    scenario = _scripted()
    scenario.sim.run_until(47.5)  # object 1 mid-step
    assert _secondary_only(scenario) > 0 and scenario.system.cgcast.in_transit()
    resumed = restore_scenario(snapshot_scenario(scenario))
    assert _secondary_only(resumed) == _secondary_only(scenario)
    resumed.sim.run()
    assert _outcome(resumed) == _outcome(straight)
