"""Property test: the δ-lookahead contract the barrier protocol rests on.

Conservative windowing is only safe because no C-gcast copy can
be delivered earlier than δ after its send (§II-C.3 delay table bottoms
out at δ; faults only add delay or drop copies).  Randomized scenarios
— world shapes, seeds, shard counts, δ values, jitter on or off — must
therefore never produce a cross-shard message with
``deliver_time < send_time + δ``; and, because the windows lose
nothing, the sharded canonical fingerprint must equal the single-loop
reference engine's.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.faults import default_plan  # noqa: E402
from repro.scenario import ScenarioConfig  # noqa: E402
from repro.sim.sharded import (  # noqa: E402
    ShardedSimulator,
    make_walk_workload,
    run_script,
    walk_scenario,
)
from repro.sim.sharded.core import _tiling_for  # noqa: E402


def _run_collecting(config, workload):
    """Run a ShardedSimulator, returning (result, exchanged rows).

    A row is ``(deliver_time, send_time, seq, ...)``: each step reply's
    outbox maps a destination shard to ``(earliest, count, rows)``.
    """
    sim = ShardedSimulator(config, workload)
    collected = []
    original = sim._make_transport

    def make_transport():
        transport = original()
        inner = transport.step_all

        def step_all(barrier, inboxes):
            replies = inner(barrier, inboxes)
            for outbox, _, _ in replies:
                for _, _, rows in outbox.values():
                    collected.extend(rows)
            return replies

        transport.step_all = step_all
        return transport

    sim._make_transport = make_transport
    return sim.run(), collected


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    shards=st.integers(min_value=2, max_value=4),
    n_moves=st.integers(min_value=1, max_value=6),
    n_finds=st.integers(min_value=0, max_value=5),
    delta=st.sampled_from([0.5, 1.0, 2.0]),
    jitter_rate=st.sampled_from([0.0, 0.5]),
)
def test_cross_shard_delivery_never_beats_delta(
    seed, shards, n_moves, n_finds, delta, jitter_rate
):
    config = ScenarioConfig(
        r=2,
        max_level=2,
        delta=delta,
        e=0.5,
        seed=seed,
        shards=shards,
        fault_plan=default_plan(
            loss_rate=0.0, jitter_rate=jitter_rate, jitter_max=0.5
        ),
    )
    workload = make_walk_workload(_tiling_for(config), n_moves, n_finds, seed)
    result, exchanged = _run_collecting(config, workload)
    assert result.events > 0
    assert len(exchanged) == result.cross_shard_messages
    for deliver_time, send_time, *_ in exchanged:
        assert deliver_time >= send_time + delta - 1e-9, (
            f"message sent at {send_time} delivered "
            f"at {deliver_time} < send + delta={delta}"
        )


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    shards=st.integers(min_value=2, max_value=4),
    n_moves=st.integers(min_value=1, max_value=5),
    n_finds=st.integers(min_value=0, max_value=4),
    jitter_rate=st.sampled_from([0.0, 0.4]),
)
def test_sharded_fingerprint_equals_reference(
    seed, shards, n_moves, n_finds, jitter_rate
):
    kwargs = dict(
        r=2,
        max_level=2,
        n_moves=n_moves,
        n_finds=n_finds,
        seed=seed,
        jitter_rate=jitter_rate,
    )
    reference = run_script(*walk_scenario(shards=1, **kwargs), "plain")
    sharded = run_script(*walk_scenario(shards=shards, **kwargs), "serial")
    assert sharded.canonical_fingerprint == reference.canonical_fingerprint
