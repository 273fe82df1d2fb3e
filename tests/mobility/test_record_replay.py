"""Record → replay round trip: recorded traces re-drive the tracker
with a bit-identical dispatch fingerprint.

:func:`trace_from_obs` rebuilds a trace from ``EvaderMoved`` obs events,
captured either from a live :class:`RandomNeighborWalk` evader on the
plain simulator or during a full tracking run.  Either way the recorded
trace, replayed through the :class:`Replay`
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
    Walk,
    check_trace,
    generate,
    trace_workload,
)
from repro.mobility.models import RandomNeighborWalk
from repro.scenario import ScenarioConfig
from repro.sim.engine import Simulator
from repro.topo.cache import shared_grid_hierarchy


def trace_from_obs(events, object_id=0):
    """Rebuild a trace from recorded ``EvaderMoved`` obs events.

    Accepts any iterable of obs events (e.g. a collector's buffer);
    non-mobility events and other objects are filtered out.
    """
    steps = [
        (ev.time, ev.region)
        for ev in events
        if getattr(ev, "kind", None) == "evader-moved"
        and ev.object_id == object_id
        and ev.event == "move"
    ]
    if not steps:
        raise ValueError(f"no EvaderMoved events for object {object_id}")
    return MobilityTrace(steps=tuple(steps), object_id=object_id)


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


def _recorded_walk(hierarchy, limits):
    """A live RandomNeighborWalk evader's trace, read back from obs."""
    sim = Simulator()
    evader = Evader(
        sim,
        hierarchy.tiling,
        RandomNeighborWalk(),
        dwell=limits.enter_floor,
        rng=random.Random(7),
    )
    with obs.observed() as collector:
        evader.enter()
        evader.start()
        sim.run_until(limits.enter_floor * 6.5)
        evader.stop()
    return trace_from_obs(collector.events)


def test_obs_trace_captures_a_random_walk():
    """Live RandomNeighborWalk evader → obs events → §VI-legal trace."""
    hierarchy = shared_grid_hierarchy(2, 2)
    limits = SpeedLimits.for_hierarchy(hierarchy)
    recorded = _recorded_walk(hierarchy, limits)
    assert len(recorded.steps) == 7  # enter + 6 periodic relocations
    assert recorded.regions[0] in set(hierarchy.tiling.regions())
    assert check_trace(recorded, hierarchy, limits) is None
    for u, v in zip(recorded.regions, recorded.regions[1:]):
        assert hierarchy.tiling.are_neighbors(u, v)


def test_recorded_walk_replays_byte_identically():
    """Replay re-times the recorded path onto the same §VI floors."""
    hierarchy = shared_grid_hierarchy(2, 2)
    limits = SpeedLimits.for_hierarchy(hierarchy)
    recorded = _recorded_walk(hierarchy, limits)

    (replayed,) = generate(
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
    workload = trace_workload(traces, n_finds=3, hierarchy=hierarchy, seed=23)

    with obs.observed() as collector:
        original_fp, report = _run_script(workload, seed=23)
    # moves_observed counts the enter as the first observed relocation.
    assert report["moves_observed"] == len(traces[0].steps)

    recovered = trace_from_obs(collector.events, object_id=0)
    assert recovered == traces[0]

    # Re-script the recovered trace (Replay combinator semantics: the
    # recorded path at the recorded times) and re-run: the tracker must
    # dispatch bit-identically.
    replay_workload = trace_workload([recovered], n_finds=3, hierarchy=hierarchy, seed=23)
    assert replay_workload.actions == workload.actions
    replay_fp, _ = _run_script(replay_workload, seed=23)
    assert replay_fp == original_fp


def test_replay_model_reproduces_the_recorded_path_regions():
    hierarchy = shared_grid_hierarchy(2, 2)
    original = generate(Walk(), hierarchy, 6, seed=5)[0]
    (replayed,) = generate(Replay(steps=original.steps), hierarchy, n_moves=6, seed=77)
    assert replayed.regions == original.regions


def test_trace_from_obs_requires_matching_object():
    hierarchy = shared_grid_hierarchy(2, 1)
    traces = generate(Walk(), hierarchy, 3, seed=1)
    workload = trace_workload(traces, hierarchy=hierarchy, seed=1)
    with obs.observed() as collector:
        _run_script(workload, max_level=1, seed=1)
    with pytest.raises(ValueError):
        trace_from_obs(collector.events, object_id=5)
