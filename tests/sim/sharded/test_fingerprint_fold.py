"""The fingerprints are bounded-memory folds of the frozen definitions.

``exact_crc`` is ``crc32("".join(lines).encode())`` of the lines in
dispatch order, and the canonical fingerprint is
``crc32("\\n".join(sorted(lines)).encode())`` of every shard's lines.
``SendFold`` keeps neither list: it folds the first as it goes, and for
the second it keeps one CRC per group of lines — per (instant, sender),
or per clock second in a world alone in its run — which
``canonical_fingerprint`` combines in key order.  Pinned here: both
equal the one-shot definitions (``tests/geocast/_reference_observers``)
for any records split across shards by sender, at batch seams and on
the edge cases of the key order; what the fold keeps does not grow with
the trace; and a group found twice fails closed.
"""

import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geocast.cgcast import SendRecord
from repro.scenario import ScenarioConfig
from repro.sim.sharded.context import SendFold, ShardContext, canonical_send_line
from repro.sim.sharded.core import (
    ShardedRunError,
    ShardedSimulator,
    _tiling_for,
    canonical_fingerprint,
)
from repro.sim.sharded.plan import strip_plan
from repro.sim.sharded.workload import make_walk_workload
from tests.geocast._reference_observers import (
    canonical_crc,
    digest_groups,
    fold_crc,
    reference_groups,
    rendered_lines,
)

#: Sender reprs that are prefixes of one another ("1", "12", "123").
SENDERS = (1, 12, 123, 2, (1, 2), "a")
PAYLOADS = ("Grow", "δ=1.0|ü", "x\ny", "", "Grow")

#: Instants around the seconds a lone shard groups by: below 10 a group
#: is one instant; 1.5e-05 prints with an exponent, between 1.25 and 1.75.
TIMES = (
    0.0, 1.5e-05, 1.25, 1.75, 3, 3.0, 3.5, 9.75, 10, 10.0, 10.5, 12.5, 12.75,
    100.25, 1000.0,
)

RECORDS = st.lists(
    st.tuples(
        st.sampled_from(TIMES),
        st.sampled_from(SENDERS),
        st.sampled_from(SENDERS),
        st.sampled_from(PAYLOADS),
        st.sampled_from((1.0, 1.5)),
    ),
    max_size=40,
).map(lambda rows: [
    SendRecord(t, src, dest, payload, cost, 2.0)
    for t, src, dest, payload, cost in sorted(rows, key=lambda row: row[0])
])


def _fold(records, batch=4096, by_sender=True):
    fold = SendFold()
    fold.group(by_sender)
    for i in range(0, len(records), batch):
        fold.observe(records[i:i + batch])
    return fold


def _check(records, k, batch=4096):
    """Split ``records`` across ``k`` shards by sender, fold, compare.

    One shard also folds by instant, as a world alone in its run does.
    """
    lines = [canonical_send_line(record) for record in records]
    for by_sender in (True, False) if k == 1 else (True,):
        shards = [
            [r for r in records if SENDERS.index(r.src) % k == shard]
            for shard in range(k)
        ]
        folds = [_fold(run, batch, by_sender) for run in shards]
        for fold, run in zip(folds, shards):
            assert fold.crc == fold_crc([canonical_send_line(r) for r in run])
        digests = [fold.digest() for fold in folds]
        assert digest_groups(*digests) == reference_groups(lines, by_sender)
        fingerprint = canonical_fingerprint(digests)
        assert fingerprint == canonical_crc(lines)
    return fingerprint


@settings(deadline=None, max_examples=200)
@given(RECORDS, st.sampled_from([1, 2, 4]), st.integers(1, 8))
def test_folds_equal_the_one_shot_definitions(records, k, batch):
    _check(records, k, batch)


def _rec(time, src, payload="Grow", dest=2):
    return SendRecord(time, src, dest, payload, 1.0, 2.0)


@pytest.mark.parametrize("k", [1, 2, 4])
@pytest.mark.parametrize(
    "records",
    [
        [],
        [_rec(1.5, 1)],
        [_rec(1.5, 1), _rec(1.5, 1), _rec(2.0, 12), _rec(2.0, 12)],
        [_rec(3, 1), _rec(3.0, 1), _rec(3, 1, "x"), _rec(3.0, 12)],
        [_rec(1.0, 123), _rec(1.0, 12), _rec(1.0, 1), _rec(1.0, 1, dest=12)],
    ],
    ids=["empty", "one-send", "duplicate-lines", "3-and-3.0", "prefix-senders"],
)
def test_digest_edge_cases(records, k):
    fingerprint = _check(records, k)
    if not records:
        assert fingerprint == "00000000"


@pytest.mark.parametrize("count", [0, 1, 2, 4095, 4096, 4097, 8192, 8193])
def test_chunk_seams(count):
    # Duplicates, non-ASCII and a payload holding the separator; groups
    # spanning the 4096-record batches the fold is handed.
    records = [
        _rec(float(i // 40), SENDERS[i % 4], PAYLOADS[i % len(PAYLOADS)] + str(i % 97))
        for i in range(count)
    ]
    _check(records, 1)
    _check(records, 2)


@given(st.lists(RECORDS, max_size=4))
def test_sorted_runs_concatenated_then_sorted_is_the_global_sort(runs):
    # Any number of shards sharing instants, each with senders of its own.
    runs = [[r._replace(src=(shard, r.src)) for r in run] for shard, run in enumerate(runs)]
    lines = [canonical_send_line(record) for run in runs for record in run]
    digests = [_fold(run).digest() for run in runs]
    assert canonical_fingerprint(digests) == canonical_crc(lines)


def test_peak_memory_does_not_follow_the_trace():
    # 100,000 sends of 130 bytes, eight per (instant, sender) group.
    payload = "x" * 111
    records = [
        _rec(float(i // 32), SENDERS[(i // 8) % 4], payload, dest=i % 8)
        for i in range(100_000)
    ]
    lines = [canonical_send_line(record) for record in records]
    total = sum(len(line) for line in lines)
    assert total >= 100_000 * 125
    tracemalloc.start()
    try:
        fold = SendFold()
        fold.group(by_sender=True)
        before = tracemalloc.get_traced_memory()[0]
        for i in range(0, len(records), 4096):
            fold.observe(records[i:i + 4096])
        kept = tracemalloc.get_traced_memory()[0] - before
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        fingerprint = canonical_fingerprint([fold.digest()])
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    # Keeping the lines took more than `total`.
    assert kept < total / 8
    assert peak < total / 8
    assert fingerprint == canonical_crc(lines)


@pytest.mark.parametrize("seed", [3, 23])
def test_k1_report_lines_are_dispatch_order_permuted(seed):
    config = ScenarioConfig(r=2, max_level=2, seed=seed)
    tiling = _tiling_for(config)
    workload = make_walk_workload(tiling, n_moves=4, n_finds=5, seed=seed)
    context = ShardContext(config, strip_plan(tiling, 1), 0, workload)
    records = []
    context.system.cgcast.observe(records.extend)
    context.sim.run()
    dispatched = [canonical_send_line(record) for record in records]
    report = context.report()
    assert context.report()["digest"] == report["digest"]  # report() folds nothing
    assert report["exact_crc"] == fold_crc(dispatched)
    # Alone in its run, the replica digests one group per instant.
    assert digest_groups(report["digest"]) == reference_groups(dispatched, False)
    assert canonical_fingerprint([report["digest"]]) == canonical_crc(dispatched)


class TestFailClosed:
    def test_a_sender_whose_repr_holds_the_separator_is_refused(self):
        fold = SendFold()
        fold.observe([_rec(1.0, 1)])
        with pytest.raises(ValueError, match="'a|b'"):
            fold.observe([_rec(2.0, 1), _rec(2.0, "a|b")])
        with pytest.raises(ValueError, match="'a|b'"):
            rendered_lines(SendFold(), [_rec(2.0, "a|b")])

    def test_a_reopened_group_is_refused(self):
        fold = _fold([_rec(1.0, 1), _rec(2.0, 1), _rec(1.0, 1, "x")])
        with pytest.raises(ShardedRunError, match=r"'1.0\|1\|' reopened in shard 0"):
            canonical_fingerprint([fold.digest()])
        # Reopening the instant for another sender reorders nothing.
        records = [_rec(1.0, 1), _rec(2.0, 1), _rec(1.0, 12)]
        lines = [canonical_send_line(record) for record in records]
        assert canonical_fingerprint([_fold(records).digest()]) == canonical_crc(lines)

    def test_a_group_found_in_two_shards_is_refused(self):
        # A mutant router that ships a foreign copy and delivers it locally
        # too: the receiving automaton then runs, and sends, in both shards.
        config = ScenarioConfig(r=2, max_level=2, seed=3, shards=2)
        tiling = _tiling_for(config)
        workload = make_walk_workload(tiling, n_moves=4, n_finds=2, seed=3)
        route = ShardContext._route_cgcast

        def leaky_route(context, *args):
            route(context, *args)
            return False

        with mock.patch.object(ShardContext, "_route_cgcast", leaky_route):
            simulator = ShardedSimulator(config, workload, "serial")
            with pytest.raises(ShardedRunError, match=r"found in shards 0 and 1"):
                simulator.run()
