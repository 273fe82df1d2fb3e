"""Property-based round trips through the checkpoint codec.

A checkpoint pickles the live object graph (``repro.ckpt.codec``), so
two state carriers must survive ``loads_graph(dumps_graph(x)[0])``
bit-identically for checkpoints to resume bit-identically:

* :class:`~repro.sim.rng.RngRegistry` — every named stream must come
  back mid-sequence, so the copy's future draws equal the original's;
* :class:`~repro.sim.event_queue.EventQueue` — pop order (including
  ``(time, priority, seq)`` tie-breaking), cancellation flags and the
  sequence counter must survive, so later pushes tie-break exactly as
  they would have in the original.

Both are exercised under random interleavings, with the copy run in
lockstep against the original.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.ckpt import dumps_graph, loads_graph  # noqa: E402
from repro.sim.event_queue import EventQueue  # noqa: E402
from repro.sim.rng import RngRegistry  # noqa: E402


def _clone(graph):
    """The path every checkpoint takes: one codec round trip."""
    return loads_graph(dumps_graph(graph)[0])


# ----------------------------------------------------------------------
# RngRegistry
# ----------------------------------------------------------------------
stream_names = st.sampled_from(
    ["fault.0.MessageLoss", "fault.1.RegionBlackout", "walk", "alpha", "b"]
)
# An op draws from a named stream (creating it on first use).
rng_ops = st.lists(st.tuples(stream_names, st.integers(0, 3)), max_size=60)


def _warmed(seed, warmup):
    registry = RngRegistry(seed)
    for name, draws in warmup:
        stream = registry.stream(name)
        for _ in range(draws):
            stream.random()
    return registry


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), warmup=rng_ops, after=rng_ops)
def test_rng_registry_roundtrip_mid_sequence(seed, warmup, after):
    original = _warmed(seed, warmup)
    clone = _clone(original)
    assert clone.seed == original.seed
    assert clone.fork_path == original.fork_path
    assert clone.names() == original.names()

    for name, draws in after:
        a, b = original.stream(name), clone.stream(name)
        for _ in range(draws + 1):
            assert a.random() == b.random()


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), warmup=rng_ops, index=st.integers(0, 5))
def test_rng_registry_fork_from_restored_state(seed, warmup, index):
    """Forking a round-tripped registry equals forking the original."""
    original = _warmed(seed, warmup)
    clone = _clone(original)
    original.fork(index)
    clone.fork(index)
    assert original.fork_path == clone.fork_path
    for name in original.names():
        assert original.stream(name).random() == clone.stream(name).random()


@given(seed=st.integers(0, 2**32 - 1), a=st.integers(0, 5), b=st.integers(0, 5))
@settings(max_examples=30, deadline=None)
def test_rng_registry_forks_diverge_iff_index_differs(seed, a, b):
    x, y = RngRegistry(seed), RngRegistry(seed)
    draws_x = [x.fork(a).stream("s").random() for _ in range(3)]
    draws_y = [y.fork(b).stream("s").random() for _ in range(3)]
    if a == b:
        assert draws_x == draws_y
    else:
        assert draws_x != draws_y


# ----------------------------------------------------------------------
# EventQueue
# ----------------------------------------------------------------------
times = st.floats(
    min_value=0.0, max_value=100.0, allow_nan=False, allow_infinity=False
)
priorities = st.integers(min_value=-3, max_value=3)

queue_ops = st.lists(
    st.one_of(
        st.tuples(st.just("push"), times, priorities),
        st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=200)),
        st.tuples(st.just("pop")),
        st.tuples(st.just("pop_before"), times),
    ),
    max_size=100,
)


def _apply(queue, handles, op):
    """Apply one op; return the popped event's key or a sentinel."""
    if op[0] == "push":
        _, time, priority = op
        handles.append(queue.push(time, fn=lambda: None, priority=priority))
        return ("pushed", handles[-1].seq)
    if op[0] == "cancel":
        if handles:
            queue.cancel(handles[op[1] % len(handles)])
        return ("cancelled",)
    until = None if op[0] == "pop" else op[1]
    event = queue.pop_next_before(until)
    if event is None:
        return ("none",)
    return ("popped", event.time, event.priority, event.seq, event.tag)


@settings(max_examples=80, deadline=None)
@given(before=queue_ops, after=queue_ops)
def test_event_queue_roundtrip_under_interleaving(before, after):
    """Round trip → identical behavior under any continuation.

    The original runs ``before`` ops and is round-tripped together with
    its handles (a checkpoint carries the objects that hold them); both
    then run ``after`` in lockstep — every pop must return the same
    ``(time, priority, seq)`` key on both sides, cancels through the
    copied handles must act on the copy, and later pushes must receive
    identical sequence numbers.
    """
    original = EventQueue()
    handles = []
    for op in before:
        _apply(original, handles, op)

    restored, restored_handles = _clone((original, handles))
    assert len(restored) == len(original)

    for op in after:
        assert _apply(restored, restored_handles, op) == _apply(original, handles, op)
        assert len(restored) == len(original)

    # Full drain must agree too (covers entries `after` never reached).
    while True:
        a = original.pop_next_before(None)
        b = restored.pop_next_before(None)
        assert (a is None) == (b is None)
        if a is None:
            break
        assert (a.time, a.priority, a.seq) == (b.time, b.priority, b.seq)


@settings(max_examples=40, deadline=None)
@given(ops=queue_ops)
def test_event_queue_snapshot_is_inert(ops):
    """Pickling a queue never perturbs the queue it captures."""
    queue = EventQueue()
    handles = []
    results = []
    for op in ops:
        dumps_graph(queue)
        results.append(_apply(queue, handles, op))

    twin = EventQueue()
    twin_handles = []
    expected = [_apply(twin, twin_handles, op) for op in ops]
    assert results == expected
