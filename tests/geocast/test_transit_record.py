"""A C-gcast copy in flight is one record: registry entry and event.

``CGcast.in_transit()`` lists every undelivered copy as ``(src, dest,
payload, deliver_time)`` in send order.  Each copy is one slotted
object that is both that entry and the event ``sim.call_at`` fires, so
these tests pin what the registry shows (under every message fault,
failed targets and physical routing), when each destination table is
read, and what one copy in flight allocates.
"""

import tracemalloc

import pytest

from repro.faults import FaultPlan, MessageDuplication, MessageJitter, MessageLoss
from repro.geocast import CGcast
from repro.geocast.physical import PhysicalCGcast
from repro.hierarchy import grid_hierarchy
from repro.scenario import ScenarioConfig, build
from repro.sim import Simulator
from repro.sim.sharded import walk_scenario
from repro.tioa import Executor, TimedAutomaton
from repro.workload import schedule_workload


class Sink(TimedAutomaton):
    def __init__(self, name):
        super().__init__(name)
        self.received = []

    def input_cTOBrcv(self, message):
        self.received.append((self.now, message))


def rig(cgcast_cls=CGcast):
    sim = Simulator()
    executor = Executor(sim)
    hierarchy = grid_hierarchy(3, 2)
    return sim, executor, hierarchy, cgcast_cls(sim, hierarchy, delta=1.0, e=0.5)


def register(executor, cgcast, clust):
    sink = Sink(f"sink:{clust}")
    executor.register(sink)
    cgcast.register_process(clust, sink)
    return sink


WALK, SCRIPT = walk_scenario(2, 2, shards=1, n_moves=6, n_finds=4, seed=7)

PLANS = {
    "duplication": FaultPlan.of(MessageDuplication(rate=0.5, copies=1)),
    "loss": FaultPlan.of(MessageLoss(rate=0.3)),
    "jitter": FaultPlan.of(MessageJitter(rate=0.5, max_extra=2.0)),
}


@pytest.mark.parametrize("name", sorted(PLANS))
def test_in_transit_is_every_undelivered_copy_in_send_order(name):
    """At each cut the registry equals an oracle built from what the
    fault filter returned per send: one entry per surviving copy, in
    send order, each a ``(src, dest, payload, time)`` tuple."""
    scenario = build(WALK.with_(fault_plan=PLANS[name]))
    system = scenario.system
    cgcast, sim = system.cgcast, system.sim
    installed, copies = cgcast.fault_filter, []

    def recording(src, dest, payload, delay):
        delays = installed(src, dest, payload, delay)
        now = sim.now
        for copy_delay in (delay,) if delays is None else delays:
            copies.append((src, dest, payload, now + copy_delay))
        return delays

    cgcast.fault_filter = recording
    schedule_workload(system, SCRIPT)
    twins = cuts = 0
    cut = 0.0
    while sim.next_event_time() is not None:
        cut += 3.7
        sim.run_until(cut)
        listed = cgcast.in_transit()
        assert listed == [c for c in copies if c[3] > cut]
        assert all(type(entry) is tuple and len(entry) == 4 for entry in listed)
        twins += sum(a == b for a, b in zip(listed, listed[1:]))
        cuts += bool(listed)
    assert cuts > 5 and cgcast.in_transit() == []
    sent = cgcast.messages_sent
    if name == "duplication":
        # Two copies with equal fields are two entries, not one.
        assert twins > 0 and len(copies) > sent
    elif name == "loss":
        assert len(copies) < sent
    else:
        assert len(copies) == sent


def test_a_copy_to_a_failed_target_leaves_at_delivery_and_delivers_nothing():
    sim, executor, h, cgcast = rig()
    src, dest = h.cluster((0, 0), 0), h.cluster((1, 1), 0)
    sink = register(executor, cgcast, dest)
    cgcast.send_vsa(src, dest, "m")
    sink.fail()
    sim.run_until(1.0)
    assert cgcast.in_transit() == [(src, dest, "m", 1.5)]
    sim.run()
    assert cgcast.in_transit() == [] and sink.received == []


class TestClientSinksAreReadAtDelivery:
    def setup_method(self):
        self.system = build(ScenarioConfig(r=2, max_level=2, seed=7)).system
        self.region = (0, 0)
        self.src = self.system.hierarchy.cluster(self.region, 0)

    def test_no_client_is_built_before_delivery(self):
        system = self.system
        before = dict(system.clients.built)
        system.cgcast.send_to_clients(self.src, "m")
        system.sim.run_until(system.delta + system.e - 0.25)
        assert dict(system.clients.built) == before
        assert self.region not in system.clients.built
        system.sim.run()
        assert self.region in system.clients.built

    def test_a_sink_registered_in_flight_receives_the_copy(self):
        system, got = self.system, []
        system.cgcast.send_to_clients(self.src, "m")
        system.cgcast.register_client_sink(self.region, got.append)
        system.sim.run()
        assert got == ["m"]


def test_a_physically_routed_copy_is_listed_mid_route():
    sim, executor, h, cgcast = rig(PhysicalCGcast)
    src, dest = h.cluster((0, 0), 0), h.cluster((5, 5), 0)
    sink = register(executor, cgcast, dest)
    cgcast.send_vsa(src, dest, "m")
    (entry,) = cgcast.in_transit()
    sim.run_until(2.5)  # two hops along a five-hop route
    assert cgcast.in_transit() == [entry] and entry[:3] == (src, dest, "m")
    assert sink.received == []
    sim.run()
    assert cgcast.in_transit() == [] and sink.received == [(entry[3], "m")]


def test_a_copy_in_flight_allocates_only_its_record_and_heap_entry():
    """Per copy: the record, the heap entry's list and item array, its
    sequence int and its delivery time — five blocks.  A ``partial`` per
    copy (with its args tuple and keywords dict) plus a transit key and
    tuple would be eight or more."""
    n = 1_000
    sim, executor, h, cgcast = rig()
    src, dest = h.cluster((0, 0), 0), h.cluster((1, 1), 0)
    register(executor, cgcast, dest)
    for _ in range(300):  # memoise the pair; move past the cached small ints
        cgcast.send_vsa(src, dest, "m")
    sim.run()
    tracemalloc.start()
    try:
        for _ in range(n):
            cgcast.send_vsa(src, dest, "m")
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    snapshot = snapshot.filter_traces(
        [tracemalloc.Filter(False, tracemalloc.__file__)]
    )
    blocks = sum(stat.count for stat in snapshot.statistics("filename"))
    assert len(cgcast.in_transit()) == n
    assert blocks <= 5 * n + 50, blocks
    sim.run()
    assert cgcast.in_transit() == []
