"""The equivalences the send→deliver pipeline's speed rests on.

``SendFold.observe`` folds a batch of send records, assembling
each canonical send line from memoised pieces (the instant's repr, the
payload object's repr, a per-sender, a per-destination and a per
``(cost, delay)`` piece) instead of formatting six reprs per send;
``CGcast.send_vsa`` keeps one distance-units int per pair; and
``CGcast._dispatch`` skips its interpositions when none is installed.
None of these shortcuts may be observable:

* every memoised line (``rendered_lines``, the fold's own line loop
  without the fold) equals :func:`canonical_send_line` of the record
  byte for byte, and both fingerprints equal a reference recomputation
  from the recorded ``SendRecord`` stream — on a fault-armed run and on
  a run heavy in client legs (``send_from_client`` / ``send_to_clients``);
* the identity memo never confuses an equal-but-distinct payload, a
  recycled address, or an instant that compares equal but prints
  differently, and the suffix memo never a cost or delay that does
  (``2`` and ``2.0``, ``0.0`` and ``-0.0``) — over random records too;
* a pair's delay and cost are ``(δ+e)·units`` and ``float(units)``, its
  units computed once;
* a no-op ``fault_filter`` plus a never-claiming ``shard_router`` leave
  the exact CRC, ``in_transit()`` at any cut time and the work buckets
  exactly as with neither installed.
"""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.messages import Find, FindAck, Grow, GrowPar
from repro.geocast.cgcast import SendRecord
from repro.faults import CHANNEL_BOTH, FaultPlan, MessageDuplication, MessageJitter, MessageLoss
from repro.hierarchy import grid_hierarchy
from repro.hierarchy.cluster import ClusterId
from repro.scenario import ScenarioConfig
from repro.sim.sharded.context import SendFold, ShardContext, canonical_send_line
from repro.sim.sharded.core import _tiling_for, canonical_fingerprint
from repro.sim.sharded.plan import strip_plan
from repro.sim.sharded.workload import make_walk_workload
from repro.workload import ScriptedWorkload
from tests.geocast._reference_observers import (
    canonical_crc, digest_groups, fold_crc, reference_groups, rendered_lines,
)


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

    def test_cost_or_delay_equal_in_value_not_in_repr(self, context, pair):
        src, dest = pair
        message = Grow(cid=src)
        self._observe(
            context,
            SendRecord(1.0, src, dest, message, 1.0, 2),
            SendRecord(1.0, src, dest, message, 1.0, 2.0),
            SendRecord(1.0, src, dest, message, 1, 2.0),
            SendRecord(1.0, dest, src, message, 0.0, 1.5),
            SendRecord(1.0, dest, src, message, -0.0, 1.5),
        )
        # The memos outlive a batch: the next one still tells them apart.
        self._observe(context, SendRecord(2.0, src, dest, message, 1.0, 2))

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


_H = grid_hierarchy(2, 2)
_REGIONS = [(0, 0), (1, 0), (3, 2), (2, 3)]
_CLUSTERS = [_H.cluster(u, level) for u in _REGIONS for level in range(3)]
#: Shared payload objects: a tracker fans one object out to its neighbors.
_SHARED = [Grow(cid=_CLUSTERS[0]), Find(cid=_CLUSTERS[1], find_id=2, object_id=4)]
#: Values equal across types or signs print differently.
_COSTS = (1, 1.0, 2, 2.0, 0.0, -0.0, 3.0)
_DELAYS = (2, 2.0, 1.5, 0.75, 0, 0.0, -0.0)
_TIMES = (0, 0.0, 1.5, 3, 3.0, 9.75, 10.5, 12.25, 12.75, 100.0)

_PAYLOADS = st.one_of(
    st.sampled_from(_SHARED),
    st.builds(Grow, cid=st.sampled_from(_CLUSTERS), object_id=st.sampled_from([0, 1, 4])),
    st.builds(
        FindAck, pointer=st.sampled_from(_CLUSTERS), find_id=st.integers(1, 3),
        object_id=st.sampled_from([0, 4]),
    ),
)
_RECORDS = st.lists(
    st.tuples(
        st.sampled_from(_TIMES),
        st.sampled_from(_CLUSTERS + _REGIONS),
        st.sampled_from(_CLUSTERS + [("clients", u) for u in _REGIONS]),
        _PAYLOADS,
        st.sampled_from(_COSTS),
        st.sampled_from(_DELAYS),
    ),
    max_size=60,
).map(lambda rows: [
    SendRecord(*row) for row in sorted(rows, key=lambda row: row[0])
])


class TestEndpointMemos:
    @settings(max_examples=150, deadline=None)
    @given(
        records=_RECORDS,
        batch=st.integers(1, 9),
        grouping=st.sampled_from([None, True, False]),
    )
    def test_random_records_render_canonically(self, records, batch, grouping):
        fold, renderer = SendFold(), SendFold()
        if grouping is not None:
            fold.group(by_sender=grouping)
        rendered = []
        for start in range(0, len(records), batch):
            chunk = records[start:start + batch]
            fold.observe(chunk)
            # A second fold, its memos carried across the batches too.
            rendered.extend(rendered_lines(renderer, chunk))
        lines = [canonical_send_line(record) for record in records]
        assert rendered == lines
        assert fold.crc == fold_crc(lines)
        if grouping is not None:
            digest = fold.digest()
            assert digest_groups(digest) == reference_groups(lines, grouping)
            assert canonical_fingerprint([digest]) == canonical_crc(lines)

    @settings(max_examples=4, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**16))
    def test_delay_and_cost_are_functions_of_the_units(self, seed):
        context = _context(n_moves=10, n_finds=6, seed=seed, r=2, max_level=3)
        cgcast = context.system.cgcast
        units_of, calls = {}, Counter()
        distance = cgcast.vsa_distance_units

        def counted(src, dest):
            calls[src, dest] += 1
            units_of[src, dest] = distance(src, dest)
            return units_of[src, dest]

        cgcast.vsa_distance_units = counted
        records = []
        cgcast.observe(records.extend)
        context.sim.run()
        vsa = [r for r in records if isinstance(r.src, ClusterId) and isinstance(r.dest, ClusterId)]
        assert len({(r.src, r.dest) for r in vsa}) > 50
        assert set(calls) == {(r.src, r.dest) for r in vsa}
        assert set(calls.values()) == {1}
        step = cgcast.delta + cgcast.e
        for r in vsa:
            units = units_of[r.src, r.dest]
            assert r.delay == step * units and type(r.delay) is float
            assert r.cost == float(units) and type(r.cost) is float
