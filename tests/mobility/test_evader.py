"""Unit tests for the Evader (§III mobile object)."""

import pytest

from repro.geometry import GridTiling
from repro.mobility import Evader, FixedPath, RandomNeighborWalk
from repro.sim import Simulator


@pytest.fixture()
def rig():
    sim = Simulator()
    tiling = GridTiling(4)
    return sim, tiling


def make_evader(sim, tiling, model=None, dwell=1.0):
    model = model if model is not None else RandomNeighborWalk(start=(0, 0))
    return Evader(sim, tiling, model, dwell)


def test_enter_emits_move(rig):
    sim, tiling = rig
    evader = make_evader(sim, tiling)
    events = []
    evader.observe(lambda ev, region: events.append((ev, region)))
    region = evader.enter()
    assert region == (0, 0)
    assert events == [("move", (0, 0))]


def test_double_enter_rejected(rig):
    sim, tiling = rig
    evader = make_evader(sim, tiling)
    evader.enter()
    with pytest.raises(RuntimeError):
        evader.enter()


def test_step_emits_left_then_move(rig):
    sim, tiling = rig
    evader = Evader(sim, tiling, FixedPath([(0, 0), (1, 0)]), 1.0)
    events = []
    evader.observe(lambda ev, region: events.append((ev, region)))
    evader.enter()
    evader.step()
    assert events == [("move", (0, 0)), ("left", (0, 0)), ("move", (1, 0))]
    assert evader.region == (1, 0)
    assert evader.moves_made == 1
    assert evader.distance_traveled == 1


def test_step_before_enter_rejected(rig):
    sim, tiling = rig
    with pytest.raises(RuntimeError):
        make_evader(sim, tiling).step()


def test_move_to_non_neighbor_rejected(rig):
    sim, tiling = rig
    evader = make_evader(sim, tiling)
    evader.enter()
    with pytest.raises(ValueError):
        evader.move_to((3, 3))


def test_move_to_same_region_is_noop(rig):
    sim, tiling = rig
    evader = make_evader(sim, tiling)
    events = []
    evader.enter()
    evader.observe(lambda ev, region: events.append(ev))
    evader.move_to((0, 0))
    assert events == []
    assert evader.moves_made == 0


def test_periodic_movement(rig):
    sim, tiling = rig
    evader = Evader(sim, tiling, FixedPath([(0, 0), (1, 0), (2, 0), (3, 0)]), 2.0)
    evader.enter()
    evader.start()
    sim.run_until(6.5)
    assert evader.region == (3, 0)
    assert evader.moves_made == 3


def test_stop_halts_movement(rig):
    sim, tiling = rig
    evader = Evader(sim, tiling, FixedPath([(0, 0), (1, 0), (2, 0)]), 2.0)
    evader.enter()
    evader.start()
    sim.run_until(2.5)
    evader.stop()
    sim.run_until(20.0)
    assert evader.region == (1, 0)


def test_start_before_enter_rejected(rig):
    sim, tiling = rig
    with pytest.raises(RuntimeError):
        make_evader(sim, tiling).start()


def test_invalid_dwell_rejected(rig):
    sim, tiling = rig
    with pytest.raises(ValueError):
        Evader(sim, tiling, RandomNeighborWalk(), 0.0)


# ----------------------------------------------------------------------
# The stay contract (regression for the silent-dwell-burn edge case):
# a permissive model returning the current region burns the dwell and
# counts a stay; a move-strict generated model raising instead of the
# tracker silently observing no relocation.
# ----------------------------------------------------------------------
def test_permissive_stay_burns_the_dwell_without_emitting(rig):
    sim, tiling = rig
    evader = Evader(sim, tiling, FixedPath([(1, 1)]), 1.0)
    events = []
    evader.enter()
    evader.observe(lambda ev, region: events.append(ev))
    assert evader.step() == (1, 1)
    assert events == []  # no left/move pair for a stay
    assert evader.stays_made == 1
    assert evader.moves_made == 0


def test_periodic_stays_accumulate_without_moves(rig):
    sim, tiling = rig
    evader = Evader(sim, tiling, FixedPath([(2, 2)]), 2.0)
    evader.enter()
    evader.start()
    sim.run_until(6.5)
    assert evader.region == (2, 2)
    assert evader.stays_made == 3
    assert evader.moves_made == 0
