"""End-to-end integration scenarios across the whole stack."""

import random

import pytest

from repro import EmulatedVineStalk, VineStalk, grid_hierarchy
from repro.analysis import WorkAccountant
from repro.core import capture_snapshot, check_consistent
from repro.mobility import FixedPath, RandomNeighborWalk


def test_long_lawnmower_sweep_stays_consistent():
    """A full boustrophedon sweep of a 8x8 world, checked every move."""
    h = grid_hierarchy(2, 3)
    system = VineStalk(h)
    sweep = [
        (col, row)
        for row in range(8)
        for col in (range(8) if row % 2 == 0 else reversed(range(8)))
    ]
    evader = system.make_evader(FixedPath(sweep), dwell=1e12, start=(0, 0))
    system.run_to_quiescence()
    for _ in range(63):  # cover all 64 regions
        evader.step()
        system.run_to_quiescence()
        snap = capture_snapshot(system)
        assert check_consistent(snap, h, evader.region) == []
    assert evader.distance_traveled == 63


def test_waypoint_walk_with_periodic_finds():
    h = grid_hierarchy(3, 2)
    system = VineStalk(h)
    rng = random.Random(17)
    tiling = h.tiling
    path = [(0, 0)]
    for waypoint in [(8, 8), (0, 8), (4, 4), (8, 0), (0, 0)]:
        while path[-1] != waypoint:  # greedy neighbor steps to the waypoint
            path.append(min(
                tiling.neighbors(path[-1]),
                key=lambda nb: (tiling.distance(nb, waypoint), nb),
            ))
    evader = system.make_evader(FixedPath(path), dwell=1e12, start=(0, 0))
    system.run_to_quiescence()
    for step in range(30):
        evader.step()
        system.run_to_quiescence()
        if step % 5 == 0:
            find_id = system.issue_find(rng.choice(h.tiling.regions()))
            system.run_to_quiescence()
            assert system.finds.records[find_id].completed
    assert system.finds.completion_rate() == 1.0


def test_work_accounting_matches_cgcast_totals():
    h = grid_hierarchy(3, 2)
    system = VineStalk(h)
    accountant = WorkAccountant().attach(system.cgcast)
    evader = system.make_evader(
        RandomNeighborWalk(start=(4, 4)), dwell=1e12, start=(4, 4),
        rng=random.Random(2),
    )
    system.run_to_quiescence()
    for _ in range(10):
        evader.step()
        system.run_to_quiescence()
    system.issue_find((0, 0))
    system.run_to_quiescence()
    assert accountant.messages == system.cgcast.messages_sent
    assert accountant.total_work == pytest.approx(system.cgcast.total_cost)
    assert accountant.move_work > 0
    assert accountant.find_work > 0


def test_two_systems_share_nothing():
    """Two independent deployments never interfere."""
    h = grid_hierarchy(2, 2)
    a = VineStalk(h)
    b = VineStalk(h)
    evader_a = a.make_evader(RandomNeighborWalk(start=(0, 0)), dwell=1e12,
                             start=(0, 0), rng=random.Random(1))
    a.run_to_quiescence()
    b_snapshot = capture_snapshot(b)
    assert b_snapshot.nonbottom_pointers() == {}
    evader_a.step()
    a.run_to_quiescence()
    assert capture_snapshot(b).nonbottom_pointers() == {}


def test_deterministic_replay():
    """Identical seeds produce identical executions and costs."""

    def run():
        h = grid_hierarchy(3, 2)
        system = VineStalk(h)
        accountant = WorkAccountant().attach(system.cgcast)
        evader = system.make_evader(
            RandomNeighborWalk(start=(4, 4)), dwell=1e12, start=(4, 4),
            rng=random.Random(33),
        )
        system.run_to_quiescence()
        for _ in range(15):
            evader.step()
            system.run_to_quiescence()
        find_id = system.issue_find((0, 0))
        system.run_to_quiescence()
        record = system.finds.records[find_id]
        return (
            evader.region,
            accountant.total_work,
            record.work,
            record.latency,
            capture_snapshot(system).pointer_map(),
        )

    assert run() == run()


def test_emulated_layer_under_continuous_churn():
    """Random VSA churn away from the action; tracking keeps working."""
    h = grid_hierarchy(3, 2)
    system = EmulatedVineStalk(h, nodes_per_region=1, t_restart=2.0)
    rng = random.Random(8)
    evader = system.make_evader(
        RandomNeighborWalk(start=(4, 4)), dwell=1e12, start=(4, 4), rng=rng
    )
    system.run_to_quiescence()
    completed = issued = 0
    for round_number in range(12):
        # Churn a far-corner region (never on the center walk's path).
        if round_number % 3 == 0:
            system.kill_region((8, 8))
        elif round_number % 3 == 1:
            system.revive_region((8, 8))
        evader.step()
        system.run_to_quiescence()
        find_id = system.issue_find((0, 0))
        system.run_to_quiescence()
        issued += 1
        if system.finds.records[find_id].completed:
            completed += 1
    assert completed == issued


def test_grid_bases_agree_on_semantics():
    """r=2 and r=3 worlds both satisfy the service spec on the same walk."""
    for r, max_level in [(2, 3), (3, 2)]:
        h = grid_hierarchy(r, max_level)
        system = VineStalk(h)
        start = h.tiling.regions()[0]
        evader = system.make_evader(
            RandomNeighborWalk(start=start), dwell=1e12, start=start,
            rng=random.Random(5),
        )
        system.run_to_quiescence()
        for _ in range(10):
            evader.step()
            system.run_to_quiescence()
        find_id = system.issue_find(h.tiling.regions()[-1])
        system.run_to_quiescence()
        record = system.finds.records[find_id]
        assert record.completed
        assert record.found_region == evader.region
