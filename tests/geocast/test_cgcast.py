"""Unit tests for C-gcast delays, costs and delivery (§II-C.3)."""

import pytest

from repro.geocast import CGcast
from repro.hierarchy import grid_hierarchy
from repro.sim import Simulator
from repro.tioa import Action, Executor, TimedAutomaton


class Sink(TimedAutomaton):
    """Records received messages with timestamps."""

    def __init__(self, name):
        super().__init__(name)
        self.received = []

    def input_cTOBrcv(self, message):
        self.received.append((self.now, message))


@pytest.fixture()
def rig():
    sim = Simulator()
    executor = Executor(sim)
    hierarchy = grid_hierarchy(3, 2)
    cgcast = CGcast(sim, hierarchy, delta=1.0, e=0.5)
    return sim, executor, hierarchy, cgcast


def register(executor, cgcast, clust):
    sink = Sink(f"sink:{clust}")
    executor.register(sink)
    cgcast.register_process(clust, sink)
    return sink


def vsa_delay(cgcast, src, dest):
    """The delivery delay ``send_vsa`` gives a VSA→VSA message."""
    return (cgcast.delta + cgcast.e) * cgcast.vsa_distance_units(src, dest)


class TestDelayRules:
    def test_rule_a_neighbor_delay(self, rig):
        sim, executor, h, cgcast = rig
        src = h.cluster((0, 0), 1)
        dest = h.cluster((3, 0), 1)
        assert dest in h.nbrs(src)
        # (δ+e)·n(1) = 1.5 · 5
        assert vsa_delay(cgcast, src, dest) == pytest.approx(7.5)
        assert cgcast.vsa_distance_units(src, dest) == 5  # the work charged

    def test_rule_b_parent_delay(self, rig):
        sim, executor, h, cgcast = rig
        src = h.cluster((0, 0), 0)
        dest = h.parent(src)
        # (δ+e)·p(0) = 1.5 · 2
        assert vsa_delay(cgcast, src, dest) == pytest.approx(3.0)

    def test_rule_b_child_delay_symmetric(self, rig):
        sim, executor, h, cgcast = rig
        child = h.cluster((0, 0), 1)
        parent = h.parent(child)
        assert vsa_delay(cgcast, parent, child) == vsa_delay(cgcast, child, parent)

    def test_rule_c_neighbor_of_neighbor(self, rig):
        sim, executor, h, cgcast = rig
        src = h.cluster((0, 0), 1)   # block (0,0)
        dest = h.cluster((8, 0), 1)  # block (2,0): neighbor of a neighbor
        assert dest not in h.nbrs(src)
        # 2(δ+e)·n(1) = 2 · 1.5 · 5
        assert vsa_delay(cgcast, src, dest) == pytest.approx(15.0)

    def test_fallback_uses_head_distance(self, rig):
        sim, executor, h, cgcast = rig
        src = h.cluster((0, 0), 0)
        dest = h.cluster((5, 5), 0)  # far level-0 cluster: no enumerated rule
        expected_units = h.tiling.distance(h.head(src), h.head(dest))
        assert vsa_delay(cgcast, src, dest) == pytest.approx(1.5 * expected_units)

    def test_negative_delta_rejected(self, rig):
        sim, executor, h, cgcast = rig
        with pytest.raises(ValueError):
            CGcast(sim, h, delta=-1.0)


class TestDelivery:
    def test_vsa_message_delivered_at_exact_delay(self, rig):
        sim, executor, h, cgcast = rig
        src = h.cluster((0, 0), 0)
        dest = h.cluster((1, 1), 0)
        register(executor, cgcast, src)
        sink = register(executor, cgcast, dest)
        cgcast.send_vsa(src, dest, "hello")
        sim.run()
        assert sink.received == [(1.5, "hello")]  # (δ+e)·n(0)

    def test_failed_process_drops_message(self, rig):
        sim, executor, h, cgcast = rig
        src = h.cluster((0, 0), 0)
        dest = h.cluster((1, 1), 0)
        sink = register(executor, cgcast, dest)
        sink.fail()
        cgcast.send_vsa(src, dest, "hello")
        sim.run()
        assert sink.received == []

    def test_unregistered_destination_raises(self, rig):
        sim, executor, h, cgcast = rig
        with pytest.raises(KeyError):
            cgcast.send_vsa(h.cluster((0, 0), 0), h.cluster((1, 1), 0), "x")

    def test_duplicate_registration_rejected(self, rig):
        sim, executor, h, cgcast = rig
        clust = h.cluster((0, 0), 0)
        register(executor, cgcast, clust)
        with pytest.raises(ValueError):
            cgcast.register_process(clust, Sink("other"))

    def test_client_to_cluster_rule_e(self, rig):
        sim, executor, h, cgcast = rig
        dest = h.cluster((0, 0), 0)
        sink = register(executor, cgcast, dest)
        cgcast.send_from_client((1, 1), dest, "up")  # from a neighboring region
        sim.run()
        assert sink.received == [(1.0, "up")]  # δ

    def test_client_cannot_reach_distant_cluster(self, rig):
        sim, executor, h, cgcast = rig
        dest = h.cluster((0, 0), 0)
        register(executor, cgcast, dest)
        with pytest.raises(ValueError):
            cgcast.send_from_client((5, 5), dest, "too far")

    def test_client_send_to_non_level0_rejected(self, rig):
        sim, executor, h, cgcast = rig
        with pytest.raises(ValueError):
            cgcast.send_from_client((0, 0), h.cluster((0, 0), 1), "x")

    def test_cluster_to_clients_rule_d(self, rig):
        sim, executor, h, cgcast = rig
        src = h.cluster((2, 2), 0)
        got = []
        cgcast.register_client_sink((2, 2), lambda m: got.append((sim.now, m)))
        cgcast.send_to_clients(src, "down")
        sim.run()
        assert got == [(1.5, "down")]  # δ+e

    def test_non_level0_client_broadcast_rejected(self, rig):
        sim, executor, h, cgcast = rig
        with pytest.raises(ValueError):
            cgcast.send_to_clients(h.cluster((0, 0), 1), "x")


class TestIntrospection:
    def test_in_transit_snapshot(self, rig):
        sim, executor, h, cgcast = rig
        src = h.cluster((0, 0), 0)
        dest = h.cluster((1, 1), 0)
        register(executor, cgcast, dest)
        cgcast.send_vsa(src, dest, "m")
        assert len(cgcast.in_transit()) == 1
        src2, dest2, payload, when = cgcast.in_transit()[0]
        assert (src2, dest2, payload, when) == (src, dest, "m", 1.5)
        sim.run()
        assert cgcast.in_transit() == []

    def test_observer_sees_cost(self, rig):
        sim, executor, h, cgcast = rig
        src = h.cluster((0, 0), 1)
        dest = h.cluster((3, 0), 1)
        register(executor, cgcast, dest)
        records = []
        cgcast.observe(records.extend)
        cgcast.send_vsa(src, dest, "m")
        assert len(records) == 1
        assert records[0].cost == 5.0
        assert records[0].delay == pytest.approx(7.5)

    def test_totals(self, rig):
        sim, executor, h, cgcast = rig
        dest = h.cluster((0, 0), 0)
        register(executor, cgcast, dest)
        cgcast.send_from_client((0, 0), dest, "a")
        cgcast.send_from_client((0, 0), dest, "b")
        assert cgcast.messages_sent == 2
        assert cgcast.total_cost == 2.0


class TestDispatchPipeline:
    def test_subclass_dispatch_override_is_honoured(self, rig):
        # Every send goes through ``self._dispatch``: a subclass that
        # interposes there must see all three send forms.
        sim, executor, h, _ = rig
        seen = []

        class Interposed(CGcast):
            def _dispatch(self, src, dest, payload, *rest):
                seen.append((src, dest, payload))
                super()._dispatch(src, dest, payload, *rest)

        cgcast = Interposed(sim, h, delta=1.0, e=0.5)
        src = h.cluster((0, 0), 0)
        dest = h.cluster((1, 1), 0)
        sink = register(executor, cgcast, dest)
        cgcast.send_vsa(src, dest, "a")
        cgcast.send_from_client((1, 1), dest, "b")
        cgcast.send_to_clients(src, "c")
        assert seen == [
            (src, dest, "a"), ((1, 1), dest, "b"), (src, ("clients", (0, 0)), "c"),
        ]
        sim.run()
        assert [m for _t, m in sink.received] == ["b", "a"]

    def test_compiled_route_is_the_rule_table(self, rig):
        # The second send of a pair takes the compiled route; it must
        # charge and delay exactly like the first.
        sim, executor, h, cgcast = rig
        src = h.cluster((0, 0), 1)
        dest = h.cluster((3, 0), 1)
        sink = register(executor, cgcast, dest)
        records = []
        cgcast.observe(records.extend)
        cgcast.send_vsa(src, dest, "first")
        cgcast.send_vsa(src, dest, "second")
        sim.run()
        assert [(r.cost, r.delay) for r in records] == [(5.0, 7.5), (5.0, 7.5)]
        assert sink.received == [(7.5, "first"), (7.5, "second")]

    def test_fanned_out_payload_reaches_every_destination(self, rig):
        # One payload object sent to several processes back to back
        # shares its cTOBrcv envelope; an equal-but-distinct payload in
        # between must not be confused with it.
        sim, executor, h, cgcast = rig
        src = h.cluster((1, 1), 0)
        dests = [h.cluster(key, 0) for key in ((0, 0), (0, 1), (1, 0))]
        sinks = [register(executor, cgcast, dest) for dest in dests]
        shared, twin = ["m"], ["m"]
        cgcast.send_vsa(src, dests[0], shared)
        cgcast.send_vsa(src, dests[1], twin)
        cgcast.send_vsa(src, dests[2], shared)
        sim.run()
        got = [sink.received[0][1] for sink in sinks]
        assert got[0] is shared and got[1] is twin and got[2] is shared

    def test_duplicated_copies_leave_transit_one_by_one(self, rig):
        sim, executor, h, cgcast = rig
        src = h.cluster((0, 0), 0)
        dest = h.cluster((1, 1), 0)
        sink = register(executor, cgcast, dest)
        cgcast.fault_filter = lambda src, dest, payload, delay: [delay, delay + 2.0]
        cgcast.send_vsa(src, dest, "m")
        assert [t for *_rest, t in cgcast.in_transit()] == [1.5, 3.5]
        sim.run_until(2.0)
        assert cgcast.in_transit() == [(src, dest, "m", 3.5)]
        sim.run()
        assert cgcast.in_transit() == []
        assert sink.received == [(1.5, "m"), (3.5, "m")]

    def test_dropped_message_is_accounted_but_never_in_transit(self, rig):
        sim, executor, h, cgcast = rig
        src = h.cluster((0, 0), 0)
        dest = h.cluster((1, 1), 0)
        sink = register(executor, cgcast, dest)
        cgcast.fault_filter = lambda *message: []
        cgcast.send_vsa(src, dest, "m")
        assert cgcast.messages_sent == 1 and cgcast.in_transit() == []
        sim.run()
        assert sink.received == []
