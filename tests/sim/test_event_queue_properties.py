"""Property-based tests for the event queue and its entry handles.

Random interleavings of push / cancel / pop / pop_next_before are run
against a naive reference model (a dict of live keys with eager
deletion).  The queue must drain in nondecreasing ``(time, priority,
seq)`` order, never resurrect a cancelled event, and agree with the
model exactly — also when an entry is cancelled twice or after it
fired, which changes neither ``len`` nor the next pop.  Every pop
returns the very list ``push`` handed out.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.sim.event_queue import PRIORITY, SEQ, TIME, EventQueue  # noqa: E402

times = st.floats(
    min_value=0.0, max_value=100.0, allow_nan=False, allow_infinity=False
)
priorities = st.integers(min_value=-3, max_value=3)

# An op is one of:
#   ("push", time, priority)
#   ("cancel", k)       — cancel the k-th pushed entry (mod pushes so far),
#                         which may be live, cancelled or already fired
#   ("pop",)            — pop the earliest live event, if any
#   ("pop_before", t)   — bounded pop
ops_strategy = st.lists(
    st.one_of(
        st.tuples(st.just("push"), times, priorities),
        st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=200)),
        st.tuples(st.just("pop")),
        st.tuples(st.just("pop_before"), times),
    ),
    max_size=120,
)


def key(entry):
    return (entry[TIME], entry[PRIORITY], entry[SEQ])


def apply_ops(ops):
    """Drive queue and reference model together; return popped entries."""
    queue = EventQueue()
    handles = []  # every pushed entry, in push order (seq == index)
    model = {}  # seq -> (time, priority, seq) for live, unpopped events
    popped = []

    def model_pop(until=None):
        live = sorted(model.values())
        if not live:
            return None
        head = live[0]
        if until is not None and head[0] > until:
            return None
        del model[head[2]]
        return head[2]

    for op in ops:
        if op[0] == "push":
            _, time, priority = op
            entry = queue.push(time, fn=lambda: None, priority=priority)
            assert entry[SEQ] == len(handles)
            handles.append(entry)
            model[entry[SEQ]] = (time, priority, entry[SEQ])
        elif op[0] == "cancel":
            if not handles:
                continue
            entry = handles[op[1] % len(handles)]
            queue.cancel(entry)
            model.pop(entry[SEQ], None)  # fired or cancelled: nothing to drop
        elif op[0] == "pop":
            want = model_pop()
            if want is None:
                with pytest.raises(IndexError):
                    queue.pop()
            else:
                got = queue.pop()
                assert got is handles[want]
                popped.append(got)
        else:  # pop_before
            want = model_pop(op[1])
            got = queue.pop_next_before(op[1])
            if want is None:
                assert got is None
            else:
                assert got is handles[want]
                popped.append(got)
        assert len(queue) == len(model)
        head = queue.peek()
        if model:
            assert head is handles[min(model.values())[2]]
        else:
            assert head is None and queue.peek_time() is None
    return queue, model, popped


@settings(max_examples=200, deadline=None)
@given(ops_strategy)
def test_queue_matches_reference_model(ops):
    queue, model, popped = apply_ops(ops)
    # Whatever remains must drain in sorted order and match the model.
    remaining = []
    while True:
        event = queue.pop_next_before(None)
        if event is None:
            break
        remaining.append(event)
    assert [e[SEQ] for e in remaining] == [s for _, _, s in sorted(model.values())]
    assert len(queue) == 0 and not queue


@settings(max_examples=200, deadline=None)
@given(ops_strategy)
def test_popped_keys_nondecreasing_between_pushes(ops):
    # Keys may only move backwards after a fresh push; between pops with
    # no intervening push they are nondecreasing.
    queue = EventQueue()
    handles = []
    last_key = None
    for op in ops:
        if op[0] == "push":
            event = queue.push(op[1], fn=lambda: None, priority=op[2])
            handles.append(event)
            last_key = None  # a new event may legitimately precede old pops
        elif op[0] == "cancel" and handles:
            queue.cancel(handles[op[1] % len(handles)])
        elif op[0] == "pop":
            try:
                event = queue.pop()
            except IndexError:
                continue
            key_ = key(event)
            assert last_key is None or key_ >= last_key
            last_key = key_
        elif op[0] == "pop_before":
            event = queue.pop_next_before(op[1])
            if event is None:
                continue
            assert event[TIME] <= op[1]
            key_ = key(event)
            assert last_key is None or key_ >= last_key
            last_key = key_


@settings(max_examples=200, deadline=None)
@given(ops_strategy)
def test_cancelled_events_never_resurface(ops):
    queue = EventQueue()
    handles = []
    cancelled = set()
    fired = set()
    for op in ops:
        if op[0] == "push":
            event = queue.push(op[1], fn=lambda: None, priority=op[2])
            handles.append(event)
        elif op[0] == "cancel" and handles:
            event = handles[op[1] % len(handles)]
            if event[SEQ] not in fired:
                cancelled.add(event[SEQ])
            queue.cancel(event)
        else:
            event = (
                queue.pop_next_before(None) if op[0] == "pop"
                else queue.pop_next_before(op[1]) if op[0] == "pop_before"
                else None
            )
            if event is not None:
                assert event[SEQ] not in cancelled
                fired.add(event[SEQ])
    while True:
        event = queue.pop_next_before(None)
        if event is None:
            break
        assert event[SEQ] not in cancelled


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(times, priorities), max_size=80))
def test_len_tracks_live_events(entries):
    queue = EventQueue()
    handles = [queue.push(t, fn=lambda: None, priority=p) for t, p in entries]
    assert len(queue) == len(entries)
    for event in handles[::2]:
        queue.cancel(event)
    expected = len(entries) - len(handles[::2])
    assert len(queue) == expected
    drained = 0
    while queue:
        queue.pop()
        drained += 1
    assert drained == expected
