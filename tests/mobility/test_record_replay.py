"""Record → replay round trip: recorded traces re-drive the tracker
with a bit-identical dispatch fingerprint.

Two recording paths are exercised:

* :class:`TraceRecorder` tapping a live evader's observer hook while a
  classic :class:`RandomNeighborWalk` runs on the plain simulator, and
* :func:`trace_from_obs` rebuilding the trace from ``EvaderMoved`` obs
  events captured during a full tracking run.

Either way the recorded trace, replayed through the :class:`Replay`
combinator / :func:`trace_workload`, must reproduce the original run's
canonical dispatch fingerprint exactly.
"""

import random

import pytest

from repro import obs
from repro.mobility.evader import Evader
from repro.mobility.gen import (
    MobilityTrace,
    Replay,
    SpeedLimits,
    TraceRecorder,
    Walk,
    check_trace,
    generate,
    generate_trace,
    trace_from_obs,
    trace_workload,
)
from repro.mobility.models import RandomNeighborWalk
from repro.scenario import ScenarioConfig
from repro.sim.engine import Simulator
from repro.topo.cache import shared_grid_hierarchy


def _run_script(workload, r=2, max_level=2, seed=11):
    """Reference-engine run of a frozen script → (fingerprint, report)."""
    from repro.sim.sharded.context import ShardContext
    from repro.sim.sharded.core import _tiling_for, canonical_fingerprint
    from repro.sim.sharded.plan import strip_plan

    config = ScenarioConfig(r=r, max_level=max_level, seed=seed, shards=1)
    context = ShardContext(config, strip_plan(_tiling_for(config), 1), 0, workload)
    context.sim.run()
    report = context.report()
    return canonical_fingerprint([report["digest"]]), report


def test_trace_recorder_captures_a_random_walk():
    """Live RandomNeighborWalk evader → TraceRecorder → §VI-legal trace."""
    hierarchy = shared_grid_hierarchy(2, 2)
    limits = SpeedLimits.for_hierarchy(hierarchy)
    sim = Simulator()
    evader = Evader(
        sim,
        hierarchy.tiling,
        RandomNeighborWalk(),
        dwell=limits.enter_floor,
        rng=random.Random(7),
    )
    recorder = TraceRecorder().attach(evader)
    evader.enter()
    evader.start()
    sim.run_until(limits.enter_floor * 6.5)
    evader.stop()

    recorded = recorder.trace()
    assert len(recorded.steps) == 7  # enter + 6 periodic relocations
    assert recorded.regions[0] in set(hierarchy.tiling.regions())
    assert check_trace(recorded, hierarchy, limits) is None
    for u, v in zip(recorded.regions, recorded.regions[1:]):
        assert hierarchy.tiling.are_neighbors(u, v)


def test_recorded_walk_replays_byte_identically():
    """Replay re-times the recorded path onto the same §VI floors."""
    hierarchy = shared_grid_hierarchy(2, 2)
    limits = SpeedLimits.for_hierarchy(hierarchy)
    sim = Simulator()
    evader = Evader(
        sim,
        hierarchy.tiling,
        RandomNeighborWalk(),
        dwell=limits.enter_floor,
        rng=random.Random(7),
    )
    recorder = TraceRecorder().attach(evader)
    evader.enter()
    evader.start()
    sim.run_until(limits.enter_floor * 6.5)
    evader.stop()
    recorded = recorder.trace()

    replayed = generate_trace(
        Replay(steps=recorded.steps),
        hierarchy,
        n_moves=len(recorded.steps) - 1,
        seed=99,  # replay ignores step randomness entirely
        base_dwell=limits.enter_floor,
    )
    assert replayed == recorded
    assert replayed.crc() == recorded.crc()


def test_obs_round_trip_dispatch_fingerprint_is_bit_identical():
    """generate → run (capturing obs) → trace_from_obs → replay → same fp."""
    hierarchy = shared_grid_hierarchy(2, 2)
    traces = generate(Walk(), hierarchy, 7, seed=23)
    workload = trace_workload(
        traces, n_finds=3, hierarchy=hierarchy, seed=23, settle=100.0
    )

    with obs.observed() as collector:
        original_fp, report = _run_script(workload, seed=23)
    # moves_observed counts the enter as the first observed relocation.
    assert report["moves_observed"] == len(traces[0].steps)

    recovered = trace_from_obs(collector.events, object_id=0)
    assert recovered == traces[0]

    # Re-script the recovered trace (Replay combinator semantics: the
    # recorded path at the recorded times) and re-run: the tracker must
    # dispatch bit-identically.
    replay_workload = trace_workload(
        [recovered], n_finds=3, hierarchy=hierarchy, seed=23, settle=100.0
    )
    assert replay_workload.actions == workload.actions
    replay_fp, _ = _run_script(replay_workload, seed=23)
    assert replay_fp == original_fp


def test_replay_model_reproduces_the_recorded_path_regions():
    hierarchy = shared_grid_hierarchy(2, 2)
    original = generate(Walk(), hierarchy, 6, seed=5)[0]
    replayed = generate_trace(
        Replay(steps=original.steps), hierarchy, n_moves=6, seed=77
    )
    assert replayed.regions == original.regions


def test_trace_from_obs_requires_matching_object():
    hierarchy = shared_grid_hierarchy(2, 1)
    traces = generate(Walk(), hierarchy, 3, seed=1)
    workload = trace_workload(traces, hierarchy=hierarchy, seed=1)
    with obs.observed() as collector:
        _run_script(workload, max_level=1, seed=1)
    with pytest.raises(ValueError):
        trace_from_obs(collector.events, object_id=5)
