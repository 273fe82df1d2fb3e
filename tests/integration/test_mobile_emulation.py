"""Emulated VSAs carried by *mobile* physical nodes.

The full §II-C story: VSAs are emulated by whatever nodes currently
populate their regions.  With nodes wandering, regions drain and refill,
VSAs die and restart — and the tracking service keeps working wherever
the population suffices.
"""

import random

import pytest

from repro.core import EmulatedVineStalk
from repro.hierarchy import grid_hierarchy
from repro.mobility import FixedPath, RandomNeighborWalk
from repro.physical import PhysicalNode


@pytest.fixture()
def system():
    h = grid_hierarchy(3, 2)
    # Dense population: 3 static nodes per region from the deployment.
    sys_ = EmulatedVineStalk(h, nodes_per_region=3, t_restart=2.0)
    return h, sys_


def test_node_wandering_between_populated_regions_is_harmless(system):
    h, sys_ = system
    sys_.make_evader(FixedPath([(4, 4)]), dwell=1e12, start=(4, 4))
    sys_.run_to_quiescence()
    # One node per region starts wandering; every region keeps >= 2 nodes
    # at all times except transiently, so no VSA ever fails.
    movers = [node for node in sys_.nodes if node.node_id % 3 == 0][:10]
    rng = random.Random(1)
    for node in movers:
        node.model = RandomNeighborWalk()
        node.dwell = 5.0
        node.start_moving()
    sys_.run(100.0)
    for node in movers:
        node.stop_moving()
    sys_.run_to_quiescence()
    assert sys_.network.alive_vsa_count() == 81
    find_id = sys_.issue_find((0, 0))
    sys_.run_to_quiescence()
    assert sys_.finds.records[find_id].completed


def test_region_drained_by_departures_fails_its_vsa():
    h = grid_hierarchy(2, 2)
    sys_ = EmulatedVineStalk(h, nodes_per_region=1, t_restart=2.0)
    sys_.make_evader(FixedPath([(0, 0)]), dwell=1e12, start=(0, 0))
    sys_.run_to_quiescence()
    # Walk the single node out of (3,3): its VSA dies; the destination
    # region gains a second node and stays up.
    victim = next(n for n in sys_.nodes if n.region == (3, 3))
    victim.move_to((2, 3))
    assert sys_.network.host((3, 3)).failed
    assert not sys_.network.host((2, 3)).failed


def test_node_arrival_restarts_vsa_after_t_restart():
    h = grid_hierarchy(2, 2)
    sys_ = EmulatedVineStalk(h, nodes_per_region=1, t_restart=2.0)
    sys_.make_evader(FixedPath([(0, 0)]), dwell=1e12, start=(0, 0))
    sys_.run_to_quiescence()
    victim = next(n for n in sys_.nodes if n.region == (3, 3))
    victim.move_to((2, 3))
    assert sys_.network.host((3, 3)).failed
    victim.move_to((3, 3))  # comes back
    sys_.run(2.5)
    assert not sys_.network.host((3, 3)).failed


def test_tracking_follows_evader_through_churny_area(system):
    h, sys_ = system
    evader = sys_.make_evader(
        FixedPath([(4, 4), (5, 4), (6, 4), (6, 5), (6, 6)]),
        dwell=1e12,
        start=(4, 4),
    )
    sys_.run_to_quiescence()
    rng = random.Random(9)
    for _step in range(4):
        # Churn a random far region between moves.
        corner = rng.choice([(0, 8), (8, 0), (0, 0)])
        sys_.kill_region(corner)
        evader.step()
        sys_.run_to_quiescence()
        sys_.revive_region(corner)
        sys_.run(3.0)
    find_id = sys_.issue_find((8, 8))
    sys_.run_to_quiescence()
    record = sys_.finds.records[find_id]
    assert record.completed
    assert record.found_region == (6, 6)
