"""Unit tests for VSA emulation semantics (§II-C.2)."""

import pytest

from repro.geometry import GridTiling
from repro.physical import PhysicalNode
from repro.sim import Simulator
from repro.vsa import VsaEmulation, VsaHost


@pytest.fixture()
def rig():
    sim = Simulator()
    tiling = GridTiling(2)
    hosts = {region: VsaHost(region) for region in tiling.regions()}
    emulation = VsaEmulation(sim, hosts, t_restart=5.0)
    return sim, tiling, hosts, emulation


def test_populated_regions_start_alive(rig):
    sim, tiling, hosts, emulation = rig
    emulation.add_node(PhysicalNode(0, tiling, (0, 0)))
    emulation.initialize()
    assert not hosts[(0, 0)].failed
    assert hosts[(1, 1)].failed  # empty region: VSA failed


def test_vsa_fails_when_region_empties_by_failure(rig):
    sim, tiling, hosts, emulation = rig
    node = PhysicalNode(0, tiling, (0, 0))
    emulation.add_node(node)
    emulation.initialize()
    node.fail()
    assert hosts[(0, 0)].failed


def test_vsa_fails_when_last_node_leaves(rig):
    sim, tiling, hosts, emulation = rig
    node = PhysicalNode(0, tiling, (0, 0))
    emulation.add_node(node)
    emulation.initialize()
    node.move_to((1, 0))
    assert hosts[(0, 0)].failed
    # (1,0) was failed and now populated: restarts only after t_restart.
    assert hosts[(1, 0)].failed
    sim.run_until(5.0)
    assert not hosts[(1, 0)].failed


def test_vsa_survives_while_one_node_remains(rig):
    sim, tiling, hosts, emulation = rig
    a = PhysicalNode(0, tiling, (0, 0))
    b = PhysicalNode(1, tiling, (0, 0))
    emulation.add_node(a)
    emulation.add_node(b)
    emulation.initialize()
    a.fail()
    assert not hosts[(0, 0)].failed
    b.fail()
    assert hosts[(0, 0)].failed


def test_restart_requires_continuous_occupancy(rig):
    sim, tiling, hosts, emulation = rig
    node = PhysicalNode(0, tiling, (0, 0))
    emulation.add_node(node)
    emulation.initialize()
    node.fail()
    assert hosts[(0, 0)].failed
    sim.run_until(1.0)
    node.restart()  # region populated again at t=1
    sim.run_until(3.0)
    node.fail()  # interrupted before t_restart elapsed
    sim.run_until(20.0)
    assert hosts[(0, 0)].failed  # never restarted


def test_restart_after_t_restart(rig):
    sim, tiling, hosts, emulation = rig
    node = PhysicalNode(0, tiling, (0, 0))
    emulation.add_node(node)
    emulation.initialize()
    node.fail()
    sim.run_until(2.0)
    node.restart()
    sim.run_until(6.9)
    assert hosts[(0, 0)].failed
    sim.run_until(7.1)  # 2.0 + 5.0 = 7.0
    assert not hosts[(0, 0)].failed


def test_leader_is_min_alive_id(rig):
    sim, tiling, hosts, emulation = rig
    a = PhysicalNode(3, tiling, (0, 0))
    b = PhysicalNode(1, tiling, (0, 0))
    emulation.add_node(a)
    emulation.add_node(b)
    emulation.initialize()
    assert emulation.leader((0, 0)).node_id == 1
    b.fail()
    assert emulation.leader((0, 0)).node_id == 3
    a.fail()
    assert emulation.leader((0, 0)) is None


def test_negative_t_restart_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        VsaEmulation(sim, {}, t_restart=-1.0)


def test_population_sorted(rig):
    sim, tiling, hosts, emulation = rig
    emulation.add_node(PhysicalNode(5, tiling, (0, 0)))
    emulation.add_node(PhysicalNode(2, tiling, (0, 0)))
    assert [n.node_id for n in emulation.population((0, 0))] == [2, 5]
