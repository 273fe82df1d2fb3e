"""Unit tests for VSA hosts, clients, V-bcast and the layer assembly."""

import pytest

from repro.geometry import GridTiling
from repro.hierarchy import grid_hierarchy
from repro.sim import Simulator
from repro.tioa import TimedAutomaton
from repro.vsa import Client, VBcast, VsaHost, VsaNetwork


class Recorder(TimedAutomaton):
    """Minimal subautomaton recording lifecycle calls."""

    def __init__(self, name):
        super().__init__(name)
        self.resets = 0

    def reset_state(self):
        self.resets += 1


class TestVsaHost:
    def test_add_and_lookup(self):
        host = VsaHost((0, 0))
        sub = Recorder("r1")
        assert host.add_subautomaton("k", sub) is sub
        assert host.subautomata() == [sub]

    def test_duplicate_key_rejected(self):
        host = VsaHost((0, 0))
        host.add_subautomaton("k", Recorder("r1"))
        with pytest.raises(ValueError):
            host.add_subautomaton("k", Recorder("r2"))

    def test_fail_cascades_to_subautomata(self):
        host = VsaHost((0, 0))
        a, b = Recorder("a"), Recorder("b")
        host.add_subautomaton("a", a)
        host.add_subautomaton("b", b)
        host.fail()
        assert a.failed and b.failed
        assert host.fail_count == 1

    def test_restart_resets_subautomata(self):
        sim = Simulator()
        from repro.tioa import Executor

        ex = Executor(sim)
        host = VsaHost((0, 0))
        sub = ex.register(Recorder("a"))
        host.add_subautomaton("a", sub)
        host.fail()
        host.restart()
        assert not sub.failed
        assert sub.resets == 1
        assert host.restart_count == 1

    def test_adding_to_failed_host_fails_subautomaton(self):
        host = VsaHost((0, 0))
        host.fail()
        sub = Recorder("a")
        host.add_subautomaton("a", sub)
        assert sub.failed

    def test_fail_idempotent(self):
        host = VsaHost((0, 0))
        host.fail()
        host.fail()
        assert host.fail_count == 1


class TestVBcast:
    def test_broadcast_reaches_neighborhood(self):
        sim = Simulator()
        tiling = GridTiling(3)
        vbcast = VBcast(sim, tiling, delta=1.0)
        got = []
        vbcast.register((0, 0), "a", lambda m, src: got.append(("a", sim.now)))
        vbcast.register((1, 1), "b", lambda m, src: got.append(("b", sim.now)))
        vbcast.register((2, 2), "c", lambda m, src: got.append(("c", sim.now)))
        vbcast.bcast((0, 0), "m")
        sim.run()
        assert got == [("a", 1.0), ("b", 1.0)]

    def test_vsa_broadcast_adds_emulation_lag(self):
        sim = Simulator()
        tiling = GridTiling(2)
        vbcast = VBcast(sim, tiling, delta=1.0, e=0.5)
        times = []
        vbcast.register((0, 0), "a", lambda m, src: times.append(sim.now))
        vbcast.bcast((0, 0), "m", from_vsa=True)
        sim.run()
        assert times == [1.5]

    def test_counters(self):
        sim = Simulator()
        tiling = GridTiling(2)
        vbcast = VBcast(sim, tiling, delta=1.0)
        vbcast.register((0, 0), "a", lambda m, src: None)
        vbcast.register((1, 1), "b", lambda m, src: None)
        vbcast.bcast((0, 0), "m")
        sim.run()
        assert vbcast.broadcasts == 1
        assert vbcast.deliveries == 2


class TestVsaNetwork:
    def test_hosts_cover_all_regions(self):
        h = grid_hierarchy(2, 1)
        net = VsaNetwork(h)
        assert sorted(net.hosts) == h.tiling.regions()
        assert net.alive_vsa_count() == 4

    def test_add_subautomaton_registers_and_hosts(self):
        h = grid_hierarchy(2, 1)
        net = VsaNetwork(h)
        sub = Recorder("sub")
        net.add_subautomaton((0, 0), "k", sub)
        assert net.host((0, 0)).subautomata() == [sub]
        assert sub.executor is net.executor

    def test_unknown_host_raises(self):
        net = VsaNetwork(grid_hierarchy(2, 1))
        with pytest.raises(KeyError):
            net.host((9, 9))

    def test_client_local_cluster(self):
        h = grid_hierarchy(2, 1)
        net = VsaNetwork(h)
        client = Client(0, h, net.cgcast)
        net.add_client(client)
        with pytest.raises(RuntimeError):
            client.local_cluster()
        client.region = (1, 0)  # the GPS fix a world's builder gives it
        assert client.local_cluster() == h.cluster((1, 0), 0)
