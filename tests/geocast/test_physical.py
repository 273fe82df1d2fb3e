"""Tests for the physically-routed C-gcast (hop-by-hop + exact-time padding)."""

import random

import pytest

from repro.core import EmulatedVineStalk, capture_snapshot, check_consistent
from repro.geocast.physical import PhysicalCGcast
from repro.hierarchy import grid_hierarchy
from repro.mobility import RandomNeighborWalk
from repro.sim import Simulator
from repro.tioa import Executor, TimedAutomaton


class Sink(TimedAutomaton):
    def __init__(self, name):
        super().__init__(name)
        self.received = []

    def input_cTOBrcv(self, message):
        self.received.append((self.now, message))


@pytest.fixture()
def rig():
    sim = Simulator()
    executor = Executor(sim)
    h = grid_hierarchy(3, 2)
    cgcast = PhysicalCGcast(sim, h, delta=1.0, e=0.5)
    return sim, executor, h, cgcast


def register(executor, cgcast, clust):
    sink = Sink(f"sink:{clust}")
    executor.register(sink)
    cgcast.register_process(clust, sink)
    return sink


class TestPhysicalDelivery:
    def test_delivery_padded_to_exact_rule_time(self, rig):
        sim, executor, h, cgcast = rig
        src = h.cluster((0, 0), 1)
        dest = h.cluster((3, 0), 1)  # neighbor at level 1: (δ+e)·n(1) = 7.5
        sink = register(executor, cgcast, dest)
        cgcast.send_vsa(src, dest, "m")
        sim.run()
        assert sink.received == [(7.5, "m")]

    def test_fallback_pair_delivered_at_head_distance_time(self, rig):
        sim, executor, h, cgcast = rig
        src = h.cluster((0, 0), 0)
        dest = h.cluster((5, 5), 0)
        sink = register(executor, cgcast, dest)
        cgcast.send_vsa(src, dest, "m")
        sim.run()
        expected = 1.5 * h.head_distance(src, dest)
        assert sink.received[0][0] == pytest.approx(expected)

    def test_down_region_on_route_drops_message(self, rig):
        sim, executor, h, cgcast = rig
        src = h.cluster((0, 0), 0)
        dest = h.cluster((4, 4), 0)  # route passes the diagonal
        sink = register(executor, cgcast, dest)
        # Kill every region at Chebyshev distance 2 from the origin; any
        # route to (4,4) must pass through that ring.
        for region in h.tiling.regions():
            if h.tiling.distance(region, (0, 0)) == 2:
                cgcast.set_region_down(region)
        cgcast.send_vsa(src, dest, "m")
        sim.run()
        assert sink.received == []
        assert cgcast.router.dropped >= 1

    def test_region_back_up_restores_delivery(self, rig):
        sim, executor, h, cgcast = rig
        src = h.cluster((0, 0), 0)
        dest = h.cluster((4, 4), 0)
        sink = register(executor, cgcast, dest)
        for region in h.tiling.regions():
            if h.tiling.distance(region, (0, 0)) == 2:
                cgcast.set_region_down(region)
                cgcast.set_region_down(region, down=False)
        cgcast.send_vsa(src, dest, "m")
        sim.run()
        assert len(sink.received) == 1

    def test_client_sends_stay_single_hop(self, rig):
        sim, executor, h, cgcast = rig
        dest = h.cluster((0, 0), 0)
        sink = register(executor, cgcast, dest)
        cgcast.send_from_client((0, 0), dest, "up")
        sim.run()
        assert sink.received == [(1.0, "up")]  # δ, never routed


class TestEmulatedPhysicalRouting:
    def test_tracking_consistent_under_physical_routing(self):
        h = grid_hierarchy(3, 2)
        system = EmulatedVineStalk(
            h, nodes_per_region=1, t_restart=3.0, physical_routing=True
        )
        rng = random.Random(4)
        evader = system.make_evader(
            RandomNeighborWalk(start=(4, 4)), dwell=1e12, start=(4, 4), rng=rng
        )
        system.run_to_quiescence()
        for _ in range(10):
            evader.step()
            system.run_to_quiescence()
            snap = capture_snapshot(system)
            assert check_consistent(snap, h, evader.region) == []

    def test_vsa_failure_blocks_forwarding_through_its_region(self):
        h = grid_hierarchy(3, 2)
        system = EmulatedVineStalk(
            h, nodes_per_region=1, t_restart=3.0, physical_routing=True
        )
        system.make_evader(
            RandomNeighborWalk(start=(4, 4)), dwell=1e12, start=(4, 4),
            rng=random.Random(4),
        )
        system.run_to_quiescence()
        # Kill the ring of regions two steps from the far corner: messages
        # from the corner's clusters cannot leave.
        for region in h.tiling.regions():
            if h.tiling.distance(region, (8, 8)) == 2:
                system.kill_region(region)
        drops_before = system.cgcast.router.dropped
        find_id = system.issue_find((8, 8))
        system.run(200.0)
        assert system.cgcast.router.dropped > drops_before
        assert not system.finds.records[find_id].completed


class TestDispatchAccountingShared:
    """``PhysicalCGcast`` changes only how a copy travels: the count,
    cost, observer, obs-event and transit accounting is the base
    class's (regression: its own ``_dispatch`` copy had drifted — no
    ``MessageDispatched`` event, O(in-flight) transit removal)."""

    def _walk(self, physical_routing):
        import repro.obs as obs

        h = grid_hierarchy(3, 2)
        system = EmulatedVineStalk(
            h, nodes_per_region=1, t_restart=3.0,
            physical_routing=physical_routing,
        )
        records = []
        system.cgcast.observe(records.extend)
        with obs.observed(max_events=100_000) as seen:
            evader = system.make_evader(
                RandomNeighborWalk(start=(4, 4)), dwell=1e12, start=(4, 4),
                rng=random.Random(4),
            )
            system.run_to_quiescence()
            for _ in range(4):
                evader.step()
                system.run_to_quiescence()
            system.issue_find((0, 0))
            system.run_to_quiescence()
        events = [e for e in seen.events if e.kind == "message-dispatched"]
        return system, records, events

    def test_one_message_dispatched_event_per_send(self):
        system, records, events = self._walk(physical_routing=True)
        assert isinstance(system.cgcast, PhysicalCGcast)
        assert len(records) == system.cgcast.messages_sent > 0
        assert [
            (e.time, e.src, e.dest, e.payload, e.cost, e.delay, e.copies)
            for e in events
        ] == [
            (r.time, r.src, r.dest, type(r.payload).__name__, r.cost, r.delay, 1)
            for r in records
        ]

    def test_events_match_the_abstract_path(self):
        # Same walk, same seed: with every VSA alive the physical
        # transport delivers at the same §II-C.3 times, so both regimes
        # dispatch the same messages and must report them identically.
        _, _, physical = self._walk(physical_routing=True)
        _, _, abstract = self._walk(physical_routing=False)
        assert physical == abstract

    def test_transit_registry_empties_on_delivery(self):
        system, records, _ = self._walk(physical_routing=True)
        assert system.cgcast.in_transit() == []
