"""Passive-trace baseline: zero-maintenance moves, pay-at-find chases."""

import pytest

from repro.baselines import PassiveTraceTracker
from repro.baselines.flooding import flood
from repro.scenario import ScenarioConfig
from repro.sim.sharded.core import _tiling_for


@pytest.fixture()
def tiling():
    return _tiling_for(ScenarioConfig(r=2, max_level=2))


def test_moves_are_free(tiling):
    tracker = PassiveTraceTracker(tiling)
    tracker.enter((0, 0))
    for region in ((1, 0), (2, 0)):
        costs = tracker.move(region)
        assert costs.work == 0.0
        assert costs.time == 0.0
    assert tracker.moves == 2
    assert tracker.total_move_work == 0.0
    assert tracker.trail == [(0, 0), (1, 0), (2, 0)]


def test_find_from_current_region_is_flood_only(tiling):
    """Nearest trail point is the newest: no chase segment remains."""
    tracker = PassiveTraceTracker(tiling)
    tracker.enter((2, 2))
    flood_only = flood(tiling, (0, 0), (2, 2))
    costs = tracker.find((0, 0))
    assert costs == flood_only


def test_find_chases_the_trail_forward(tiling):
    """Entering at an old trail point pays one hop-walk per segment."""
    tracker = PassiveTraceTracker(tiling)
    trail = [(0, 2), (1, 2), (2, 2), (3, 2)]
    tracker.enter(trail[0])
    for region in trail[1:]:
        tracker.move(region)
    # Origin co-located with the oldest point: the flood resolves at
    # distance 0 and the chase walks the remaining three unit hops.
    ring = flood(tiling, (0, 2), (0, 2))
    costs = tracker.find((0, 2))
    assert costs.work == ring.work + 3.0
    assert costs.time == ring.time + 3.0 * tracker.delta
    assert tracker.finds == 1
    assert tracker.total_find_work == costs.work


def test_nearest_point_ties_break_toward_newest(tiling):
    tracker = PassiveTraceTracker(tiling)
    # Two trail points equidistant from the origin (1, 1).
    tracker.enter((0, 1))
    tracker.move((2, 1))
    index, region, distance = tracker._nearest_trail_point((1, 1))
    assert (index, region) == (1, (2, 1))
    assert distance == tiling.distance((1, 1), (2, 1))


def test_trail_cap_ages_out_oldest(tiling):
    tracker = PassiveTraceTracker(tiling, trail_cap=2)
    tracker.enter((0, 0))
    for region in ((1, 0), (2, 0)):
        tracker.move(region)
    assert tracker.trail == [(1, 0), (2, 0)]


def test_registry_builds_passive_trace(tiling):
    """The harness registry builds it; no ScenarioConfig names it."""
    from repro.analysis.crossbase import ANALYTIC_TRACKERS

    tracker = ANALYTIC_TRACKERS["passive-trace"](tiling)
    assert isinstance(tracker, PassiveTraceTracker)
    assert not tracker.handover(tracker.enter((0, 0)))
    for key in ("passive-trace", "passive_trace"):
        with pytest.raises(ValueError, match="unknown system"):
            ScenarioConfig(r=2, max_level=2, system=key)
