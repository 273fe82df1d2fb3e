"""The fingerprints are bounded-memory folds of the frozen definitions.

``canonical_fingerprint`` is ``crc32("\\n".join(sorted(lines)).encode())``
and ``exact_crc`` is ``crc32("".join(lines).encode())``; both fold the
lines in 4096-line chunks, so their scratch memory is one chunk, not a
joined copy of the trace.  Pinned here: the folded values equal the
one-shot definitions (chunk seams included), shards may hand their lines
over pre-sorted, and the peak allocation no longer grows with the trace.
"""

import tracemalloc
import zlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.scenario import ScenarioConfig
from repro.sim.sharded.context import ShardContext, fold_crc
from repro.sim.sharded.core import _tiling_for, canonical_fingerprint
from repro.sim.sharded.plan import strip_plan
from repro.sim.sharded.workload import make_walk_workload

LINES = st.lists(st.text(max_size=12), max_size=40)


def _one_shot_canonical(lines):
    crc = zlib.crc32("\n".join(sorted(lines)).encode())
    return f"{crc:08x}"


def _one_shot_exact(lines):
    return zlib.crc32("".join(lines).encode())


@given(LINES)
def test_folds_equal_the_one_shot_definitions(lines):
    assert canonical_fingerprint(lines) == _one_shot_canonical(lines)
    assert fold_crc(lines) == _one_shot_exact(lines)
    assert fold_crc(iter(lines), "\n") == zlib.crc32("\n".join(lines).encode())


@pytest.mark.parametrize("count", [0, 1, 2, 4095, 4096, 4097, 8192, 8193])
def test_chunk_seams(count):
    # Duplicates, non-ASCII and a line that is itself the separator.
    pool = ["7.5|a|b", "7.5|a|b", "δ=1.0|ü", "", "\n", "z"]
    lines = [f"{pool[i % len(pool)]}{i % 97}" for i in range(count)]
    assert canonical_fingerprint(lines) == _one_shot_canonical(lines)
    assert fold_crc(lines) == _one_shot_exact(lines)


@given(st.lists(LINES, max_size=5))
def test_sorted_runs_concatenated_then_sorted_is_the_global_sort(shards):
    handed_over = [line for lines in shards for line in sorted(lines)]
    everything = [line for lines in shards for line in lines]
    assert sorted(handed_over) == sorted(everything)
    assert canonical_fingerprint(handed_over) == _one_shot_canonical(everything)


def test_peak_memory_does_not_follow_the_trace():
    lines = [f"{i:07d}|" + "x" * 122 for i in range(100_000, 0, -1)]
    assert len(lines[0]) == 130
    total = sum(len(line) for line in lines)
    tracemalloc.start()
    try:
        fingerprint = canonical_fingerprint(lines)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # The joined-and-encoded body peaked at over twice `total`.
    assert peak < total / 2
    assert fingerprint == _one_shot_canonical(lines)


@pytest.mark.parametrize("seed", [3, 23])
def test_k1_report_lines_are_dispatch_order_permuted(seed):
    config = ScenarioConfig(r=2, max_level=2, seed=seed)
    tiling = _tiling_for(config)
    workload = make_walk_workload(tiling, n_moves=4, n_finds=5, seed=seed)
    context = ShardContext(config, strip_plan(tiling, 1), 0, workload)
    context.sim.run()
    dispatched = list(context.send_lines)
    report = context.report()
    assert context.send_lines == dispatched  # report() leaves the order alone
    assert report["send_lines"] == sorted(dispatched)
    assert report["exact_crc"] == _one_shot_exact(dispatched)
    assert canonical_fingerprint(report["send_lines"]) == _one_shot_canonical(
        dispatched
    )
