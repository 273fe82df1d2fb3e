"""Deterministic calendar queue for discrete-event simulation.

Events are ordered by ``(time, priority, sequence)``.  The sequence number
is assigned at scheduling time, so events scheduled earlier fire earlier
when time and priority tie — this makes every simulation run fully
deterministic for a fixed seed and schedule order.

Cancellation is O(1): a cancelled :class:`Event` stays in the heap but is
skipped when popped (lazy deletion).

Fast lane: the heap stores ``(time, priority, seq, event)`` tuples rather
than bare :class:`Event` objects, so every heap sift compares keys with
C-level tuple comparison instead of calling ``Event.__lt__``.  The ``seq``
component is unique per queue, so a comparison never reaches the event
itself.  :meth:`pop_next_before` fuses the cancelled-entry sweep with the
pop, which lets the simulator loop do a single head scan per fired event
(``peek_time()`` + ``pop()`` each re-scan the head).
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Optional


class Event:
    """A scheduled callback.

    Attributes:
        time: Simulation time at which the event fires.
        priority: Secondary ordering key; lower fires first at equal time.
        seq: Monotone sequence number breaking remaining ties.
        fn: Zero-argument callable invoked when the event fires.
        tag: Optional free-form label used by traces and tests.
    """

    __slots__ = ("time", "priority", "seq", "fn", "tag", "_cancelled", "_popped")

    def __init__(
        self,
        time: float,
        priority: int,
        seq: int,
        fn: Callable[[], Any],
        tag: Optional[str] = None,
    ) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.fn = fn
        self.tag = tag
        self._cancelled = False
        self._popped = False

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def cancel(self) -> None:
        """Mark this event so that it is skipped when popped."""
        self._cancelled = True

    def sort_key(self) -> tuple:
        return (self.time, self.priority, self.seq)

    def __lt__(self, other: "Event") -> bool:
        return self.sort_key() < other.sort_key()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self._cancelled else "pending"
        return f"Event(t={self.time}, prio={self.priority}, tag={self.tag!r}, {state})"


class EventQueue:
    """Min-heap of :class:`Event` handles with lazy cancellation.

    Heap entries are ``(time, priority, seq, event)`` tuples; the public
    interface still deals in :class:`Event` handles.
    """

    def __init__(self) -> None:
        self._heap: list[tuple] = []
        self._next_seq = 0
        self._live = 0

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    def push(
        self,
        time: float,
        fn: Callable[[], Any],
        priority: int = 0,
        tag: Optional[str] = None,
    ) -> Event:
        """Schedule ``fn`` at ``time`` and return a cancellable handle."""
        if time != time:  # NaN guard
            raise ValueError("event time must not be NaN")
        seq = self._next_seq
        self._next_seq = seq + 1
        event = Event(time, priority, seq, fn, tag)
        heapq.heappush(self._heap, (time, priority, seq, event))
        self._live += 1
        return event

    def cancel(self, event: Event) -> None:
        """Cancel a previously scheduled event.

        Idempotent, and a no-op for events that already fired (a timer
        may legitimately disarm itself from inside its own wakeup).
        """
        if not event._cancelled and not event._popped:
            event._cancelled = True
            self._live -= 1

    def peek_time(self) -> Optional[float]:
        """Time of the earliest live event, or ``None`` if empty."""
        self._drop_cancelled()
        if not self._heap:
            return None
        return self._heap[0][0]

    def peek(self) -> Optional[Event]:
        """The earliest live event, left in place, or ``None`` if empty."""
        self._drop_cancelled()
        return self._heap[0][3] if self._heap else None

    def pop(self) -> Event:
        """Remove and return the earliest live event.

        Raises:
            IndexError: if the queue holds no live events.
        """
        event = self.pop_next_before(None)
        if event is None:
            raise IndexError("pop from empty EventQueue")
        return event

    def pop_next_before(self, until: Optional[float], strict: bool = False) -> Optional[Event]:
        """Pop the earliest live event with ``time <= until`` in one sweep.

        Cancelled entries at the head are discarded as part of the same
        scan.  Returns ``None`` — leaving the head in place — when the
        queue holds no live event or the earliest one lies beyond
        ``until`` (``until=None`` means no bound).  With ``strict`` the
        bound is exclusive (``time < until``) — the window form the
        sharded PDES driver uses, where an event at exactly the barrier
        belongs to the *next* window (a cross-shard message may still be
        delivered at exactly barrier time).
        """
        heap = self._heap
        heappop = heapq.heappop
        while heap:
            head = heap[0]
            event = head[3]
            if event._cancelled:
                heappop(heap)
                continue
            if until is not None and (head[0] > until or (strict and head[0] >= until)):
                return None
            heappop(heap)
            event._popped = True
            self._live -= 1
            return event
        return None

    def clear(self) -> None:
        self._heap.clear()
        self._live = 0

    # ------------------------------------------------------------------
    # Snapshot / restore (repro.ckpt engine hook)
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Capture the queue's full ordering state as plain data.

        The capture carries every pending entry — time, priority, the
        tie-breaking sequence number, the callback, the tag and the
        cancellation flag — plus the next sequence number, so a restored
        queue pops the exact same events in the exact same ``(time,
        priority, seq)`` order and assigns future pushes the same
        sequence numbers the original would have.  Callbacks are held by
        reference; cross-process portability is the
        :mod:`repro.ckpt` codec's job, not this method's.
        """
        return {
            "entries": [
                (time, priority, seq, event.fn, event.tag, event._cancelled)
                for (time, priority, seq, event) in self._heap
            ],
            "next_seq": self._next_seq,
        }

    def restore(self, state: dict) -> None:
        """Reinstate a :meth:`snapshot` capture.

        Fresh :class:`Event` handles are built for every entry, so the
        restored queue shares no mutable state with the snapshot (or
        with handles returned by pushes before the snapshot — those
        handles no longer control the restored queue's entries).
        """
        heap: list[tuple] = []
        live = 0
        for time, priority, seq, fn, tag, cancelled in state["entries"]:
            event = Event(time, priority, seq, fn, tag)
            if cancelled:
                event._cancelled = True
            else:
                live += 1
            heap.append((time, priority, seq, event))
        heapq.heapify(heap)
        self._heap = heap
        self._live = live
        self._next_seq = state["next_seq"]

    def _drop_cancelled(self) -> None:
        heap = self._heap
        while heap and heap[0][3]._cancelled:
            heapq.heappop(heap)
