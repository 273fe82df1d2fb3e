"""A script is one pending event: the cursor of ``schedule_workload``.

``schedule_workload`` keeps one cursor per script: the queue holds the
script's next action only, and each action pushes its successor, at a
sequence number reserved when the script was scheduled, before its
effect runs.  The eager scheduler it replaced
(``tests/_reference_schedule.py``) is the oracle: on generated scripts
both fire the same ``(time, tag)`` sequence and end in the same exact
and canonical fingerprints.  Generated scripts seldom put an action on
a protocol event's instant (a cursor pushing at fresh sequence numbers
passes their properties); the grid-script property, whose actions tie
with message deliveries, is the one that fails it.  Also here:
constructed ties, the queue's depth after scheduling, plain ≡ serial
K=2 on a mix of owned and unowned finds, and a snapshot cut between two
actions.
"""

from contextlib import contextmanager
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sim.sharded.context as context_module
from repro.ckpt import restore_scenario, run_fingerprint, snapshot_scenario
from repro.mobility.gen import GeneratedWalk, preset_names
from repro.scenario import ScenarioConfig, build
from repro.service import LoadGenerator, cross_check
from repro.sim.event_queue import FN, TAG, TIME, EventQueue
from repro.sim.sharded import run_script
from repro.sim.sharded.core import _tiling_for
from repro.workload import (
    EvaderEnter,
    EvaderStep,
    IssueFind,
    ScriptedWorkload,
    materialize,
    schedule_workload,
)
from tests._reference_schedule import schedule_eagerly

CONFIG = ScenarioConfig(r=2, max_level=2, seed=7, n_objects=3, find_clients=3)


@contextmanager
def firing():
    """Yield the list of ``(time, tag)`` of every entry a queue hands the loop."""
    fired, original = [], EventQueue.pop_next_before

    def pop_next_before(queue, until, strict=False):
        entry = original(queue, until, strict)
        if entry is not None:
            fired.append((entry[TIME], entry[TAG]))
        return entry

    with mock.patch.object(EventQueue, "pop_next_before", pop_next_before):
        yield fired


def _run(config, script, schedule, backend="plain"):
    """``run_script`` with ``schedule`` as the world's scheduler."""
    with mock.patch.object(context_module, "schedule_workload", schedule):
        with firing() as fired:
            record = run_script(config, script, backend)
    return record, fired


def _assert_same_run(config, script):
    cursor, cursor_fired = _run(config, script, schedule_workload)
    eager, eager_fired = _run(config, script, schedule_eagerly)
    assert cursor_fired == eager_fired
    assert sum(tag.startswith("workload:") for _, tag in cursor_fired) == len(script.actions)
    assert cursor.exact_fingerprint == eager.exact_fingerprint
    assert cursor.canonical_fingerprint == eager.canonical_fingerprint
    assert cursor.events == eager.events == len(cursor_fired)


# ----------------------------------------------------------------------
# The oracle: generated scripts fire as the eager schedule did
# ----------------------------------------------------------------------
@settings(max_examples=20, deadline=None)
@given(
    preset=st.sampled_from(sorted(preset_names())),
    seed=st.integers(0, 2**16),
    n_objects=st.integers(1, 3),
    n_finds=st.integers(0, 6),
)
def test_a_generated_walk_fires_as_the_eager_schedule(preset, seed, n_objects, n_finds):
    walk = GeneratedWalk(r=2, max_level=2, mobility=preset, n_moves=6,
                         n_finds=n_finds, n_objects=n_objects)
    config = CONFIG.with_(seed=seed, n_objects=n_objects)
    _assert_same_run(config, materialize(walk, seed))


@settings(max_examples=20, deadline=None)
@given(
    arrival=st.sampled_from(["poisson", "burst", "uniform"]),
    seed=st.integers(0, 2**16),
    n_objects=st.integers(1, 4),
    n_finds=st.integers(1, 12),
)
def test_a_service_load_fires_as_the_eager_schedule(arrival, seed, n_objects, n_finds):
    config = CONFIG.with_(seed=seed, n_objects=n_objects)
    load = LoadGenerator(
        tiling=_tiling_for(config), n_objects=n_objects, n_finds=n_finds,
        find_clients=3, arrival=arrival, rate=2.0, moves_per_object=3,
        deadline=60.0,
    )
    _assert_same_run(config, materialize(load, seed))


@st.composite
def grid_scripts(draw):
    """Scripts on ``CONFIG``'s 4x4 world whose actions sit on a 0.5 grid:
    a message hop takes δ+e = 1.5, so protocol events often land on an
    action's instant — the ties the reserved numbers must decide."""
    tiling = _tiling_for(CONFIG)
    regions = tiling.regions()
    actions, where = [], {}
    for index in range(draw(st.integers(3, 24))):
        time = draw(st.integers(0, 80)) / 2
        kind = draw(st.sampled_from(["move", "move", "find"]))
        object_id = draw(st.integers(0, 2))
        if kind == "find":
            origin = draw(st.sampled_from(regions))
            actions.append(IssueFind(time, origin, index + 1, object_id=object_id))
        elif object_id not in where:
            where[object_id] = draw(st.sampled_from(regions))
            actions.append(EvaderEnter(time, where[object_id], object_id))
        else:
            where[object_id] = draw(st.sampled_from(tiling.neighbors(where[object_id])))
            actions.append(EvaderStep(time, where[object_id], object_id))
    # Times in generation order keep every object's enter before its steps.
    times = sorted(action.time for action in actions)
    return ScriptedWorkload.of(
        replace(action, time=time) for action, time in zip(actions, times)
    )


@settings(max_examples=40, deadline=None)
@given(script=grid_scripts())
def test_a_script_of_same_instant_ties_fires_as_the_eager_schedule(script):
    _assert_same_run(CONFIG, script)


# ----------------------------------------------------------------------
# Ties: a reserved number orders as if pushed when the script was
# ----------------------------------------------------------------------
#: Three actions; the step at t=2 is pushed only when the one at t=1 fires.
TIE_SCRIPT = ScriptedWorkload(
    actions=(
        EvaderEnter(0.0, (0, 0)),
        EvaderStep(1.0, (0, 1)),
        EvaderStep(2.0, (1, 1)),
    ),
    horizon=2.0,
)


def _tie_run(schedule, before: bool):
    """Run ``TIE_SCRIPT`` with a ``"marker"`` event at t=2, pushed before
    the script is scheduled or during the run (at t=0.5, before the cursor
    has pushed the t=2 step)."""
    scenario = build(CONFIG)
    sim = scenario.sim
    marker = lambda: None  # noqa: E731
    if before:
        sim.call_at(2.0, marker, tag="marker")
    else:
        sim.call_at(0.5, lambda: sim.call_at(2.0, marker, tag="marker"), tag="pusher")
    schedule(scenario.system, TIE_SCRIPT)
    with firing() as fired:
        sim.run()
    return [tag for time, tag in fired if time == 2.0 and tag in ("marker", "workload:move")]


def test_an_event_pushed_before_the_script_fires_first_at_its_instant():
    assert _tie_run(schedule_workload, before=True) == ["marker", "workload:move"]
    assert _tie_run(schedule_eagerly, before=True) == ["marker", "workload:move"]


def test_an_event_pushed_during_the_run_fires_after_at_its_instant():
    assert _tie_run(schedule_workload, before=False) == ["workload:move", "marker"]
    assert _tie_run(schedule_eagerly, before=False) == ["workload:move", "marker"]


# ----------------------------------------------------------------------
# The queue holds one entry per script
# ----------------------------------------------------------------------
def test_a_scheduled_script_is_one_live_entry():
    walk = materialize(GeneratedWalk(r=2, max_level=2, n_moves=12, n_finds=5), 3)
    scenario = build(CONFIG)
    sim = scenario.sim
    assert schedule_workload(scenario.system, walk) == len(walk.actions) > 1
    assert len(sim._queue) == 1
    other = ScriptedWorkload.of([EvaderEnter(0.5, (3, 3), 2), EvaderStep(9.0, (3, 2), 2)])
    schedule_workload(scenario.system, other)
    assert len(sim._queue) == 2
    sim.run()
    assert scenario.system.scripts == [walk, other]
    assert scenario.system.object_evader(2).region == (3, 2)


def test_a_script_that_starts_before_the_clock_is_refused():
    from repro.sim.engine import SimulationError

    scenario = build(CONFIG)
    scenario.sim.run_until(1.5)
    with pytest.raises(SimulationError, match="before now"):
        schedule_workload(scenario.system, TIE_SCRIPT)
    assert len(scenario.sim._queue) == 0


@pytest.mark.parametrize("schedule", [schedule_workload, schedule_eagerly],
                         ids=["cursor", "eager"])
def test_an_effect_that_raises_leaves_the_rest_of_the_script_queued(schedule):
    """The successor is pushed before the effect runs, so a raising
    action leaves the queue as the eager schedule would have."""
    scenario = build(CONFIG)
    schedule(scenario.system, TIE_SCRIPT)
    scenario.sim.run_until(0.5)
    scenario.system.object_evader(0).region = None  # the t=1 step now raises
    with pytest.raises(RuntimeError, match="has not entered"):
        scenario.sim.run()
    pending = [
        (entry[TIME], entry[TAG]) for entry in scenario.sim._queue._heap
        if entry[FN] is not None and (entry[TAG] or "").startswith("workload:")
    ]
    assert pending == [(2.0, "workload:move")]


# ----------------------------------------------------------------------
# Engines and cuts
# ----------------------------------------------------------------------
def test_plain_equals_serial_k2_on_owned_and_unowned_finds():
    config = CONFIG.with_(shards=2, n_objects=3)
    load = LoadGenerator(
        tiling=_tiling_for(config), n_objects=3, n_finds=16, find_clients=4,
        arrival="poisson", rate=1.0, moves_per_object=3, deadline=60.0,
    )
    script = materialize(load, config.seed)
    with firing() as fired:
        plain, sharded, match = cross_check(config, script)
    assert match
    assert plain.finds_completed == sharded.finds_completed > 0
    assert {"workload:find", "workload:find-register"} <= {tag for _, tag in fired}
    # Each shard's cursor fires as the eager schedule did in that shard.
    cursor, cursor_fired = _run(config, script, schedule_workload, "serial")
    eager, eager_fired = _run(config, script, schedule_eagerly, "serial")
    assert cursor_fired == eager_fired
    assert cursor.canonical_fingerprint == eager.canonical_fingerprint
    assert cursor.canonical_fingerprint == sharded.canonical_fingerprint


WALK = materialize(GeneratedWalk(r=2, max_level=2, n_moves=6, n_finds=3), 5)
#: Distinct action instants of ``WALK``; a cut halfway between two of them.
INSTANTS = sorted({action.time for action in WALK.actions})


@pytest.mark.parametrize("gap", [0, len(INSTANTS) // 2, len(INSTANTS) - 2])
def test_a_cut_between_two_actions_resumes_bit_identical(gap):
    cut_at = (INSTANTS[gap] + INSTANTS[gap + 1]) / 2
    straight = build(CONFIG)
    schedule_eagerly(straight.system, WALK)
    straight.sim.run()
    scenario = build(CONFIG)
    schedule_workload(scenario.system, WALK)
    scenario.sim.run_until(cut_at)
    resumed = restore_scenario(snapshot_scenario(scenario))
    assert run_fingerprint(resumed) == run_fingerprint(scenario)
    resumed.sim.run()
    scenario.sim.run()
    assert run_fingerprint(resumed) == run_fingerprint(straight) == run_fingerprint(scenario)
