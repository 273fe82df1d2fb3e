"""The equivalences the send→deliver pipeline's speed rests on.

``SendFold.observe`` folds a batch of send records, assembling
each canonical send line from memoised pieces (the instant's repr, the
payload object's repr, a per ``(src, dest)`` prefix and suffix) instead
of formatting six reprs per send, and ``CGcast._dispatch`` skips its
interpositions when none is installed.  Neither shortcut may be
observable:

* every memoised line (``rendered_lines``, the fold's own line loop
  without the fold) equals :func:`canonical_send_line` of the record
  byte for byte, and both fingerprints equal a reference recomputation
  from the recorded ``SendRecord`` stream — on a fault-armed run and on
  a run heavy in client legs (``send_from_client`` / ``send_to_clients``);
* the identity memo never confuses an equal-but-distinct payload, a
  recycled address, or an instant that compares equal but prints
  differently;
* a no-op ``fault_filter`` plus a never-claiming ``shard_router`` leave
  the exact CRC, ``in_transit()`` at any cut time and the work buckets
  exactly as with neither installed.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.messages import Find, Grow, GrowPar
from repro.geocast.cgcast import SendRecord
from repro.faults import CHANNEL_BOTH, FaultPlan, MessageDuplication, MessageJitter, MessageLoss
from repro.scenario import ScenarioConfig
from repro.sim.sharded.context import ShardContext, canonical_send_line
from repro.sim.sharded.core import _tiling_for, canonical_fingerprint
from repro.sim.sharded.plan import strip_plan
from repro.sim.sharded.workload import make_walk_workload
from repro.workload import ScriptedWorkload
from tests.geocast._reference_observers import canonical_crc, fold_crc, rendered_lines


def _context(n_moves, n_finds, seed, fault_plan=None, r=2, max_level=2):
    config = ScenarioConfig(
        r=r, max_level=max_level, delta=1.0, e=0.5, seed=seed,
        fault_plan=fault_plan,
    )
    tiling = _tiling_for(config)
    workload = make_walk_workload(tiling, n_moves, n_finds, seed)
    return ShardContext(config, strip_plan(tiling, 1), 0, workload)


class TestMemoisedLinesAreCanonical:
    @pytest.mark.parametrize(
        "n_moves, n_finds, fault_plan",
        [
            # loss + duplication + jitter
            (8, 6, FaultPlan.of(
                MessageLoss(rate=0.1, channel=CHANNEL_BOTH),
                MessageDuplication(rate=0.1, channel=CHANNEL_BOTH),
                MessageJitter(rate=0.3, max_extra=0.5, channel=CHANNEL_BOTH),
            )),
            (3, 24, None),  # client legs dominate: find storm on a short walk
        ],
        ids=["fault-armed", "client-heavy"],
    )
    def test_every_line_and_both_fingerprints(self, n_moves, n_finds, fault_plan):
        context = _context(n_moves, n_finds, seed=23, fault_plan=fault_plan)
        records, rendered = [], []

        def tap(batch):
            records.extend(batch)
            rendered.extend(rendered_lines(context.send_fold, batch))

        context.system.cgcast.observe(tap)
        context.sim.run()
        assert len(records) == context.system.cgcast.messages_sent > 100
        kinds = {(type(r.src).__name__, type(r.dest).__name__) for r in records}
        assert {("tuple", "ClusterId"), ("ClusterId", "tuple")} <= kinds
        reference = [canonical_send_line(record) for record in records]
        assert rendered == reference
        report = context.report()
        assert report["exact_crc"] == fold_crc(reference)
        assert canonical_fingerprint([report["digest"]]) == canonical_crc(reference)
        if fault_plan is not None:
            assert sum(report["fault_stats"].values()) > 0


class TestIdentityMemo:
    @pytest.fixture()
    def context(self):
        config = ScenarioConfig(r=2, max_level=2, seed=1)
        tiling = _tiling_for(config)
        return ShardContext(
            config, strip_plan(tiling, 1), 0, ScriptedWorkload(actions=(), horizon=0.0)
        )

    @pytest.fixture()
    def pair(self, context):
        h = context.system.hierarchy
        src = h.cluster((0, 0), 0)
        return src, h.nbrs(src)[0]

    def _observe(self, context, *records):
        lines = rendered_lines(context.send_fold, list(records))
        assert lines == [canonical_send_line(r) for r in records]
        return lines

    def test_equal_but_distinct_payloads(self, context, pair):
        src, dest = pair
        first, twin = Grow(cid=src, object_id=3), Grow(cid=src, object_id=3)
        assert first == twin and first is not twin
        lines = self._observe(
            context,
            SendRecord(1.0, src, dest, first, 1.0, 1.5),
            SendRecord(1.0, src, dest, twin, 1.0, 1.5),
            SendRecord(1.0, src, dest, GrowPar(cid=src, object_id=3), 1.0, 1.5),
        )
        assert lines[0] == lines[1] != lines[2]

    def test_recycled_payload_address(self, context, pair):
        # The memo holds the payload it formatted last, so a dropped
        # payload's address cannot come back as a different message.
        src, dest = pair
        for find_id in range(50):
            self._observe(
                context,
                SendRecord(2.0, src, dest, Find(cid=src, find_id=find_id), 1.0, 1.5),
            )

    def test_payload_reused_across_instants(self, context, pair):
        src, dest = pair
        message = Grow(cid=src)
        lines = self._observe(
            context,
            SendRecord(1.0, src, dest, message, 1.0, 1.5),
            SendRecord(2.5, src, dest, message, 1.0, 1.5),
            SendRecord(2.5, dest, src, message, 1.0, 1.5),
        )
        assert lines[0].startswith("1.0|") and lines[1].startswith("2.5|")

    def test_instants_equal_in_value_but_not_in_repr(self, context, pair):
        src, dest = pair
        message = Grow(cid=src)
        lines = self._observe(
            context,
            SendRecord(3, src, dest, message, 1.0, 1.5),
            SendRecord(3.0, src, dest, message, 1.0, 1.5),
        )
        assert lines[0].startswith("3|") and lines[1].startswith("3.0|")

    def test_cost_or_delay_off_the_cached_pair_formats_in_full(self, context, pair):
        src, dest = pair
        message = Grow(cid=src)
        self._observe(
            context,
            SendRecord(1.0, src, dest, message, 1.0, 1.5),
            SendRecord(1.0, src, dest, message, 1.0, 2.25),  # e.g. a lag spike
            SendRecord(1.0, src, dest, message, 2.0, 1.5),
            SendRecord(1.0, src, dest, message, 1.0, 1.5),
        )


class TestAbsentInterpositionsCostNothingObservable:
    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        cuts=st.lists(
            st.floats(min_value=0.0, max_value=400.0, allow_nan=False),
            min_size=1, max_size=5,
        ),
    )
    def test_noop_hooks_equal_no_hooks(self, seed, cuts):
        bare = _context(n_moves=6, n_finds=5, seed=seed)
        hooked = _context(n_moves=6, n_finds=5, seed=seed)
        calls = {"filter": 0, "router": 0}

        def fault_filter(src, dest, payload, delay):
            calls["filter"] += 1
            return None

        def shard_router(src, dest, payload, deliver_time):
            calls["router"] += 1
            return False

        hooked.system.cgcast.fault_filter = fault_filter
        hooked.system.cgcast.shard_router = shard_router

        def transit(context):
            return [
                (repr(src), repr(dest), repr(payload), when)
                for src, dest, payload, when in context.system.cgcast.in_transit()
            ]

        for cut in sorted(cuts):
            bare.sim.run_until(cut)
            hooked.sim.run_until(cut)
            assert transit(hooked) == transit(bare)
        bare.sim.run()
        hooked.sim.run()
        assert transit(hooked) == transit(bare) == []
        sent = hooked.system.cgcast.messages_sent
        assert calls == {"filter": sent, "router": sent}
        bare_report, hooked_report = bare.report(), hooked.report()
        for key in ("exact_crc", "digest", "events", "messages_sent",
                    "total_cost", "move_work", "find_work", "other_work", "finds"):
            assert hooked_report[key] == bare_report[key], key
