"""C-gcast send records reach their observers in batches, and lose nothing.

``CGcast._dispatch`` only appends the record of a send to a pending
list; the observers get the list at a flush — when ``_BATCH`` records
are pending, when the event loop returns, on ``flush()``.  What that
must not change is anything an observer computes.  The per-record
observers this replaced live on in ``_reference_observers`` and run in
lockstep with the folds:

* under any interleaving of ``run`` / ``run_until`` / ``run_window`` /
  ``step`` / an in-event ``flush()`` / a late ``observe()`` / a send
  made while idle, every observer sees every record exactly once in
  dispatch order, the pending list never outgrows ``_BATCH``, and at
  every loop exit the folds' state is the per-record state bit for bit
  (send lines, both fingerprints, the group digest, work buckets and
  their key order, per-find work, handovers, the energy ledger, the sync
  counters);
* the same on a fault-armed run with energy and on a client-leg-heavy
  run, and on a multi-object service script that crosses the real
  ``_BATCH`` of 4096 inside one ``run()``;
* a record sent by an event that then raises is still delivered;
* whatever reads an observer's state *inside* an event and can steer
  the run by it (the energy rate policy) reads it current.
"""

from functools import wraps
from inspect import unwrap
from itertools import count
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.messages import Find
from repro.energy import EnergyLedger, EnergyModel
from repro.faults import CHANNEL_BOTH, FaultPlan, MessageDuplication, MessageJitter, MessageLoss
from repro.geocast import cgcast as cgcast_module
from repro.scenario import ScenarioConfig
from repro.service.load import LoadGenerator
from repro.sim.sharded.context import ShardContext, canonical_send_line
from repro.sim.sharded.core import _tiling_for, canonical_fingerprint
from repro.sim.sharded.plan import strip_plan
from repro.sim.sharded.workload import make_walk_workload
from repro.workload import materialize
from tests.geocast._reference_observers import (
    ReferenceWorld,
    canonical_crc,
    fold_crc,
)


def lossy_plan(rate, jitter_rate, jitter_max):
    """Loss and duplication at ``rate`` plus jitter, on C-gcast."""
    return FaultPlan.of(
        MessageLoss(rate=rate, channel=CHANNEL_BOTH),
        MessageDuplication(rate=rate, channel=CHANNEL_BOTH),
        MessageJitter(rate=jitter_rate, max_extra=jitter_max, channel=CHANNEL_BOTH),
    )


#: Inexact unit costs: float sums then depend on the order of addition.
ENERGY = EnergyModel(tx_cost=0.3, rx_cost=0.7, sense_cost=0.2)


def _context(workload=None, n_moves=6, n_finds=5, seed=3, **config):
    config = ScenarioConfig(r=2, max_level=2, delta=1.0, e=0.5, seed=seed, **config)
    tiling = _tiling_for(config)
    if workload is None:
        workload = make_walk_workload(tiling, n_moves, n_finds, seed)
    else:
        workload = materialize(workload(tiling), seed)
    return ShardContext(config, strip_plan(tiling, 1), 0, workload)


def _client_find(system, region, find_id):
    """A client's find output, sent from wherever the caller stands."""
    system.finds.new_find(region, find_id=find_id)
    cluster = system.hierarchy.cluster(region, 0)
    system.cgcast.send_from_client(
        region, cluster, Find(cid=cluster, find_id=find_id)
    )


class _Tap:
    """An observer that checks the calling convention as it collects."""

    def __init__(self, cgcast):
        self.cgcast = cgcast
        self.records = []
        self.batches = []

    def __call__(self, records):
        assert type(records) is list and records
        # Handed over whole: nothing is pending while observers run.
        assert self.cgcast._pending == []
        self.batches.append(len(records))
        self.records.extend(records)


def _watch_pending(cgcast, dispatched):
    """Note every dispatch, and the pending list's length after it."""
    lengths = []
    dispatch = cgcast._dispatch

    def _dispatch(src, dest, payload, *rest):
        dispatched.append((cgcast.sim.now, src, dest, payload))
        dispatch(src, dest, payload, *rest)
        lengths.append(len(cgcast._pending))

    cgcast._dispatch = _dispatch
    return lengths


OPS = st.one_of(
    st.tuples(st.just("run_until"), st.floats(0.0, 90.0)),
    st.tuples(st.just("run_window"), st.floats(0.0, 90.0)),
    st.tuples(st.just("run"), st.integers(1, 60)),
    st.tuples(st.just("step"), st.integers(1, 12)),
    st.tuples(st.just("flush_in_event"), st.floats(0.0, 60.0)),
    st.tuples(st.just("late_observe"), st.none() | st.floats(0.0, 60.0)),
    st.tuples(st.just("idle_send"), st.integers(0, 15)),
)


class TestInterleavings:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        batch=st.sampled_from([1, 2, 7, 64]),
        ops=st.lists(OPS, min_size=1, max_size=8),
    )
    def test_folds_equal_the_per_record_observers(self, seed, batch, ops):
        with mock.patch.object(cgcast_module, "_BATCH", batch):
            context = _context(
                seed=seed, system="replicated", energy=ENERGY,
                fault_plan=lossy_plan(0.05, jitter_rate=0.2, jitter_max=0.5),
            )
            sim, cgcast = context.sim, context.system.cgcast
            reference = ReferenceWorld(context)
            dispatched = []
            lengths = _watch_pending(cgcast, dispatched)
            tap = _Tap(cgcast)
            cgcast.observe(tap)
            late = []  # (tap, records dispatched before it subscribed)
            regions = list(context.system.hierarchy.tiling.regions())
            idle_ids = count(1000)  # far above the script's own find ids

            def subscribe():
                late.append((_Tap(cgcast), len(dispatched)))
                cgcast.observe(late[-1][0])

            def idle():
                assert not sim.running and cgcast._pending == []
                assert [
                    (r.time, r.src, r.dest, r.payload) for r in tap.records
                ] == dispatched
                for late_tap, missed in late:
                    assert late_tap.records == tap.records[missed:]
                reference.assert_equal()

            for op, arg in ops:
                if op == "run_until":
                    sim.run_until(sim.now + arg)
                elif op == "run_window":
                    sim.run_window(sim.now + arg)
                elif op == "run":
                    sim.run(max_events=arg)
                elif op == "step":
                    for _ in range(arg):
                        sim.step()
                        idle()
                elif op == "flush_in_event":
                    sim.call_after(arg, cgcast.flush)
                elif op == "late_observe":
                    if arg is None:
                        subscribe()
                    else:  # from inside an event, sends of its run pending
                        sim.call_after(arg, subscribe)
                else:
                    sent = len(tap.records)
                    _client_find(
                        context.system, regions[arg % len(regions)], next(idle_ids)
                    )
                    assert len(tap.records) == sent + 1  # flushed at once
                idle()
            sim.run()
            idle()
            assert len(tap.records) == cgcast.messages_sent > 50
            assert max(lengths) < batch and max(tap.batches) <= batch


class TestShapes:
    @pytest.mark.parametrize(
        "n_moves, n_finds, config",
        [
            (8, 6, dict(fault_plan=lossy_plan(0.1, jitter_rate=0.3, jitter_max=0.5),
                        energy=ENERGY)),
            (3, 24, {}),  # client legs dominate: find storm on a short walk
        ],
        ids=["fault-armed-energy", "client-heavy"],
    )
    def test_state_at_every_loop_exit(self, n_moves, n_finds, config):
        context = _context(n_moves=n_moves, n_finds=n_finds, seed=23, **config)
        reference = ReferenceWorld(context)
        for cut in (0.0, 19.5, 20.0, 61.0, 140.0):
            context.sim.run_until(cut)
            reference.assert_equal()
        context.sim.run()
        reference.assert_equal()
        assert context.system.cgcast.messages_sent > 100
        report = context.report()
        assert report["exact_crc"] == context.exact_crc()
        if config:
            assert sum(report["fault_stats"].values()) > 0
            assert report["energy"]["dispatches"] == report["messages_sent"]

    def test_one_run_across_the_real_batch_size(self):
        # 160 lanes: > 2 x 4096 sends inside a single run() call.
        context = _context(
            lambda tiling: LoadGenerator(
                tiling, n_objects=160, n_finds=60, moves_per_object=3, rate=0.5
            ),
            energy=ENERGY,
        )
        cgcast = context.system.cgcast
        reference = ReferenceWorld(context)
        lengths = _watch_pending(cgcast, [])
        tap = _Tap(cgcast)
        cgcast.observe(tap)
        context.sim.run()
        assert cgcast_module._BATCH == 4096
        assert cgcast.messages_sent > 2 * 4096
        assert max(lengths) == 4095  # the 4096th send hands the list over
        assert tap.batches[:2] == [4096, 4096] and sum(tap.batches) == len(lengths)
        assert len(context.handovers) == 160
        reference.assert_equal()


class TestLoopExit:
    def test_a_raising_event_still_delivers_its_sends(self):
        context = _context()
        sim, system = context.sim, context.system
        tap = _Tap(system.cgcast)
        system.cgcast.observe(tap)
        origin = list(system.hierarchy.tiling.regions())[0]

        def send_then_fail():
            _client_find(system, origin, 1000)
            assert system.cgcast._pending  # not shown to anyone yet
            raise RuntimeError("boom")

        sim.run_until(5.0)
        seen = len(tap.records)
        sim.call_after(1.0, send_then_fail)
        with pytest.raises(RuntimeError, match="boom"):
            sim.run_until(10.0)
        assert not sim.running and system.cgcast._pending == []
        assert len(tap.records) == seen + 1 == system.cgcast.messages_sent
        assert context.scenario.accountant.messages == seen + 1
        sim.run()  # and the loop is usable afterwards
        assert len(tap.records) == system.cgcast.messages_sent > seen + 1

    def test_epoch_is_current_inside_an_event(self):
        context = _context()
        sim, system = context.sim, context.system
        accountant = context.scenario.accountant
        origin = list(system.hierarchy.tiling.regions())[0]
        marks = []

        def probe():
            before = accountant.epoch()
            _client_find(system, origin, 1000)
            marks.append(accountant.delta_since(before))

        sim.call_after(7.0, probe)
        sim.run()
        assert marks[0].messages == 1 and marks[0].find_work == 1.0


class TestSubscription:
    def test_unobserve_flushes_then_removes_the_observer_and_its_wrappers(self):
        context = _context()
        cgcast = context.system.cgcast
        plain, wrapped = _Tap(cgcast), _Tap(cgcast)

        @wraps(wrapped)
        def wrapper(records):
            wrapped(records)

        cgcast.observe(plain)
        cgcast.observe(wrapper)
        origin = list(context.system.hierarchy.tiling.regions())[0]
        sent = []

        def send_then_unobserve():
            _client_find(context.system, origin, 1000)
            assert cgcast._pending  # not shown to anyone yet
            cgcast.unobserve(plain)
            cgcast.unobserve(wrapped)
            cgcast.unobserve(wrapped)  # absent: a no-op
            sent.append(cgcast.messages_sent)

        context.sim.call_at(1.0, send_then_unobserve)
        context.sim.run()
        assert cgcast.messages_sent > sent[0]
        assert len(plain.records) == len(wrapped.records) == sent[0]

    def test_the_replica_owns_its_world_fold(self):
        # A wrapping observe(), as a profiler installs one, still leaves
        # exactly one subscription folding the sends: the replica's.
        original = cgcast_module.CGcast.observe

        def wrapping_observe(cgcast, observer):
            @wraps(observer)
            def wrapper(records):
                observer(records)

            return original(cgcast, wrapper)

        with mock.patch.object(cgcast_module.CGcast, "observe", wrapping_observe):
            context = _context()
        owners = [
            getattr(unwrap(o), "__self__", None)
            for o in context.system.cgcast._observers
        ]
        assert context in owners and context.send_fold not in owners
        tap = _Tap(context.system.cgcast)
        context.system.cgcast.observe(tap)
        context.sim.run()
        # Folded once each: a second subscription would fold every line twice.
        assert len(tap.records) == context.system.cgcast.messages_sent > 0
        lines = [canonical_send_line(record) for record in tap.records]
        assert context.exact_crc() == fold_crc(lines)
        report = context.report()
        assert canonical_fingerprint([report["digest"]]) == canonical_crc(lines)


class TestInEventReaders:
    def test_rate_policy_reads_a_current_ledger(self):
        # The predictive tracker's throttle reads the hottest region's
        # charge between sends and decides by it: with a budget this
        # tight the run is steered by that read.  Flushing after every
        # send is the per-record ledger.
        def run(flush_every_send):
            context = _context(
                lambda tiling: LoadGenerator(
                    tiling, n_objects=3, n_finds=6, moves_per_object=6
                ),
                system="predictive",
                energy=EnergyModel(budget=80.0),
            )
            cgcast = context.system.cgcast
            if flush_every_send:
                dispatch = cgcast._dispatch

                def _dispatch(*args):
                    dispatch(*args)
                    cgcast.flush()

                cgcast._dispatch = _dispatch
            context.sim.run()
            return context.report()

        batched, per_record = run(False), run(True)
        assert min(batched["preconfig"][key] for key in ("sent", "suppressed")) > 0
        assert batched == per_record

    def test_vbcast_charges_keep_their_place_among_the_sends(self):
        # tx/rx are one float per region for both channels, summed in
        # charge order (and listed in first-charge order).
        context = _context()
        system = context.system
        regions = list(system.hierarchy.tiling.regions())
        ledgers = []

        def send_then_bcast():
            ledger = EnergyLedger(ENERGY, system.hierarchy).attach(system.cgcast)
            _client_find(system, regions[0], 1000)
            ledger.charge_vbcast(regions[1])
            ledger.charge_vbcast_rx(regions[2])
            ledgers.append(ledger)

        context.sim.call_at(0.25, send_then_bcast)
        context.sim.run_until(0.25)
        assert list(ledgers[0].tx) == regions[:2]
        assert list(ledgers[0].rx) == [regions[0], regions[2]]
