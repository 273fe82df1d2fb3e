"""Unit tests for the deterministic event queue."""

import pytest

from repro.sim.event_queue import FN, PRIORITY, SEQ, TAG, TIME, EventQueue


def test_empty_queue():
    q = EventQueue()
    assert len(q) == 0
    assert not q
    assert q.peek_time() is None
    assert q.peek() is None
    with pytest.raises(IndexError):
        q.pop()


def test_orders_by_time():
    q = EventQueue()
    fired = []
    q.push(3.0, lambda: fired.append("c"))
    q.push(1.0, lambda: fired.append("a"))
    q.push(2.0, lambda: fired.append("b"))
    while q:
        q.pop()[FN]()
    assert fired == ["a", "b", "c"]


def test_fifo_within_same_time():
    q = EventQueue()
    for i in range(10):
        q.push(5.0, lambda i=i: i, tag=str(i))
    popped = [q.pop()[TAG] for _ in range(10)]
    assert popped == [str(i) for i in range(10)]


def test_priority_breaks_time_ties():
    q = EventQueue()
    q.push(1.0, lambda: None, priority=5, tag="low")
    q.push(1.0, lambda: None, priority=1, tag="high")
    assert q.pop()[TAG] == "high"
    assert q.pop()[TAG] == "low"


def test_pushed_handle_is_the_heap_entry():
    q = EventQueue()
    fn = lambda: None  # noqa: E731
    entry = q.push(2.5, fn, priority=3, tag="t")
    assert entry == [2.5, 3, 0, fn, "t"]
    assert (entry[TIME], entry[PRIORITY], entry[SEQ], entry[FN], entry[TAG]) == (
        2.5, 3, 0, fn, "t"
    )
    assert q.peek() is entry
    assert q.pop() is entry


def test_cancel_skips_event():
    q = EventQueue()
    ev = q.push(1.0, lambda: None, tag="dead")
    q.push(2.0, lambda: None, tag="live")
    q.cancel(ev)
    assert len(q) == 1
    assert q.pop()[TAG] == "live"


def test_cancel_is_idempotent():
    q = EventQueue()
    ev = q.push(1.0, lambda: None)
    q.cancel(ev)
    q.cancel(ev)
    assert len(q) == 0
    assert q.peek_time() is None


def test_cancel_after_fire_changes_nothing():
    # A timer may disarm itself from inside its own wakeup: the entry it
    # holds has already left the heap.
    q = EventQueue()
    fired = q.push(1.0, lambda: None, tag="fired")
    q.push(2.0, lambda: None, tag="next")
    assert q.pop() is fired
    q.cancel(fired)
    q.cancel(fired)
    assert len(q) == 1
    assert q.peek_time() == 2.0
    assert q.pop()[TAG] == "next"


def test_peek_time_skips_cancelled_head():
    q = EventQueue()
    ev = q.push(1.0, lambda: None)
    q.push(2.0, lambda: None)
    q.cancel(ev)
    assert q.peek_time() == 2.0


def test_nan_time_rejected():
    q = EventQueue()
    with pytest.raises(ValueError):
        q.push(float("nan"), lambda: None)


def test_clear():
    q = EventQueue()
    q.push(1.0, lambda: None)
    q.push(2.0, lambda: None)
    q.clear()
    assert len(q) == 0


def test_interleaved_push_pop():
    q = EventQueue()
    q.push(10.0, lambda: None, tag="late")
    q.push(1.0, lambda: None, tag="early")
    assert q.pop()[TAG] == "early"
    q.push(5.0, lambda: None, tag="mid")
    assert q.pop()[TAG] == "mid"
    assert q.pop()[TAG] == "late"


def test_reserved_numbers_order_ahead_of_later_pushes():
    q = EventQueue()
    first = q.reserve(2)
    later = q.push(1.0, lambda: None, tag="later")
    second = q.push_reserved(first + 1, 1.0, lambda: None, tag="second")
    head = q.push_reserved(first, 1.0, lambda: None, tag="first")
    assert (head[SEQ], second[SEQ], later[SEQ]) == (first, first + 1, first + 2)
    assert q.push(1.0, lambda: None, tag="last")[SEQ] == first + 3
    assert [q.pop()[TAG] for _ in range(4)] == ["first", "second", "later", "last"]


def test_a_reserved_entry_still_orders_by_time_and_priority():
    q = EventQueue()
    first = q.reserve(1)
    q.push(1.0, lambda: None, priority=1, tag="urgent-later")
    q.push(2.0, lambda: None, tag="earlier")
    q.push_reserved(first, 2.0, lambda: None, priority=1, tag="reserved")
    assert [q.pop()[TAG] for _ in range(3)] == ["urgent-later", "earlier", "reserved"]


def test_push_reserved_restores_the_counter_when_push_raises():
    q = EventQueue()
    first = q.reserve(3)
    q.push(0.5, lambda: None)
    resume = q._next_seq
    with pytest.raises(ValueError):
        q.push_reserved(first, float("nan"), lambda: None)
    assert q._next_seq == resume == first + 4
    assert q.push(1.0, lambda: None)[SEQ] == resume
    assert len(q) == 2
