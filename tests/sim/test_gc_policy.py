"""The one GC policy: ``gc_paused`` owns every pause, freeze and collect.

Builds and event loops run with automatic collection paused and restore
the prior state however they exit; a sharded run is one pause, barriers
included; a sweep job collects its own cyclic garbage (timers and
trackers refer to each other) before it returns; only the pool workers
a runner owns freeze their heap.  The per-cluster automata are slotted,
which is where a world's memory went.
"""

import gc
import re
from pathlib import Path
from unittest import mock

import pytest

from repro.analysis.parallel import SweepRunner, _execute, job
from repro.baselines.no_lateral import NoLateralTracker
from repro.core.client_tracking import TrackingClient
from repro.core.tracker import Tracker
from repro.scenario import ScenarioConfig, build
from repro.sim.engine import Simulator, gc_paused
from repro.sim.sharded import ShardContext, make_walk_workload, run_script
from repro.sim.sharded.core import _tiling_for
from repro.tioa.timers import Timer

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
TINY = job("move_walk", r=2, max_level=2, n_moves=2, seed=1)
SHARDED = ScenarioConfig(r=2, max_level=2, seed=3, shards=2)
WALK = make_walk_workload(_tiling_for(SHARDED), 4, 2, 3)


@pytest.fixture(params=[True, False], ids=["gc-on", "gc-off"])
def gc_state(request):
    """Run the test with automatic collection on, then off; restore it."""
    was_enabled = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was_enabled else gc.disable)()


def test_build_restores_the_gc_state(gc_state):
    build(ScenarioConfig(r=2, max_level=2))
    assert gc.isenabled() is gc_state


def test_run_restores_the_gc_state_also_when_an_event_raises(gc_state):
    sim = Simulator()
    seen = []
    sim.call_at(1.0, lambda: seen.append(gc.isenabled()))
    sim.run()
    assert seen == [False] and gc.isenabled() is gc_state
    sim.call_at(2.0, lambda: 1 / 0)
    with pytest.raises(ZeroDivisionError):
        sim.run()
    assert gc.isenabled() is gc_state


def _probe_windows(seen, fail_at=None):
    """``ShardContext.step``, recording the GC state between windows and
    inside each (one probe event per shard window); the probe raises
    instead once ``fail_at`` states are recorded."""
    step = ShardContext.step

    def probing_step(ctx, barrier, batches):
        seen.append(gc.isenabled())
        fail = len(seen) == fail_at
        ctx.sim.call_at(ctx.sim.now, (lambda: 1 / 0) if fail else (lambda: seen.append(gc.isenabled())))
        return step(ctx, barrier, batches)

    return mock.patch.object(ShardContext, "step", probing_step)


def test_a_sharded_run_is_one_pause(gc_state):
    seen = []
    with _probe_windows(seen):
        record = run_script(SHARDED, WALK, "serial")
    assert len(seen) == 4 * record.windows and not any(seen)
    assert gc.isenabled() is gc_state


def test_a_sharded_run_restores_the_gc_state_also_when_a_window_raises(gc_state):
    with _probe_windows([], fail_at=5), pytest.raises(ZeroDivisionError):
        run_script(SHARDED, WALK, "serial")
    assert gc.isenabled() is gc_state


def test_a_plain_run_pauses_only_in_build_and_the_loop(gc_state):
    seen = []
    report = ShardContext.report

    def probing_report(ctx):
        seen.append(gc.isenabled())
        return report(ctx)

    with mock.patch.object(ShardContext, "report", probing_report):
        run_script(SHARDED, WALK, "plain")
        assert seen == [gc_state]
        run_script(SHARDED, WALK, "serial")  # one report per shard
        assert seen == [gc_state, False, False]
    assert gc.isenabled() is gc_state


def test_serial_sweep_restores_the_gc_state_also_when_a_runner_raises(gc_state):
    SweepRunner(mode="serial").run([TINY])
    assert gc.isenabled() is gc_state
    with pytest.raises(TypeError):
        SweepRunner(mode="serial").run([job("move_walk", r=2, max_level=2, bogus=1)])
    assert gc.isenabled() is gc_state


def test_a_nested_pause_does_not_re_enable_early():
    assert gc.isenabled()
    with gc_paused():
        with gc_paused(collect=True):
            assert not gc.isenabled()
        assert not gc.isenabled()
    assert gc.isenabled()


@pytest.mark.parametrize("mode", ["serial", "parallel"])
def test_only_owned_pool_workers_freeze(mode):
    frozen = gc.get_freeze_count()
    SweepRunner(workers=2, mode=mode).run([TINY, TINY])
    assert gc.get_freeze_count() == frozen


def test_a_job_leaves_no_tracker_behind():
    def trackers():
        return sum(isinstance(obj, Tracker) for obj in gc.get_objects())

    gc.collect()
    before = trackers()
    with gc_paused():  # no automatic pass frees the job's worlds for it
        _execute(TINY)
        assert trackers() == before


def test_per_cluster_automata_have_no_instance_dict():
    plain = build(ScenarioConfig(r=2, max_level=2)).system
    no_lateral = build(ScenarioConfig(r=2, max_level=2, system="no-lateral")).system
    tracker = next(iter(plain.trackers.values()))
    instances = [
        tracker,
        tracker.timer,
        next(iter(plain.clients.values())),
        next(iter(no_lateral.trackers.values())),
    ]
    assert [type(x) for x in instances] == [Tracker, Timer, TrackingClient, NoLateralTracker]
    for instance in instances:
        assert not hasattr(instance, "__dict__"), type(instance)


def test_gc_has_one_owner():
    """Only ``repro.sim.engine`` imports or calls :mod:`gc`."""
    callers = sorted(
        str(path.relative_to(SRC))
        for path in SRC.rglob("*.py")
        if re.search(r"^import gc\b|\bgc\.(collect|disable|enable|freeze)\(",
                     path.read_text(), re.M)
    )
    assert callers == ["sim/engine.py"]
