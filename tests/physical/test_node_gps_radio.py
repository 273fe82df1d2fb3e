"""Unit tests for the physical substrate: nodes and deployment."""

import pytest

from repro.geometry import GridTiling
from repro.physical import PhysicalNode, per_region_density
from repro.sim import Simulator


@pytest.fixture()
def rig():
    sim = Simulator()
    tiling = GridTiling(3)
    return sim, tiling


class TestPhysicalNode:
    def test_move_emits_leave_enter(self, rig):
        sim, tiling = rig
        node = PhysicalNode(0, tiling, (0, 0))
        events = []
        node.observe(lambda n, ev, region: events.append((ev, region)))
        node.move_to((1, 1))
        assert events == [("leave", (0, 0)), ("enter", (1, 1))]
        assert node.region == (1, 1)

    def test_non_neighbor_move_rejected(self, rig):
        sim, tiling = rig
        node = PhysicalNode(0, tiling, (0, 0))
        with pytest.raises(ValueError):
            node.move_to((2, 2))

    def test_dead_node_does_not_move(self, rig):
        sim, tiling = rig
        node = PhysicalNode(0, tiling, (0, 0))
        node.fail()
        node.move_to((1, 1))
        assert node.region == (0, 0)

    def test_fail_restart_events(self, rig):
        sim, tiling = rig
        node = PhysicalNode(0, tiling, (0, 0))
        events = []
        node.observe(lambda n, ev, region: events.append(ev))
        node.fail()
        node.fail()  # idempotent
        node.restart()
        assert events == ["fail", "restart"]


class TestDeployment:
    def test_per_region_density(self, rig):
        sim, tiling = rig
        nodes = per_region_density(tiling, 3)
        assert len(nodes) == 27
        per_region = {}
        for node in nodes:
            per_region[node.region] = per_region.get(node.region, 0) + 1
        assert all(count == 3 for count in per_region.values())

    def test_negative_count_rejected(self, rig):
        sim, tiling = rig
        with pytest.raises(ValueError):
            per_region_density(tiling, -1)
