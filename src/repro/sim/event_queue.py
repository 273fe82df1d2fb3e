"""Deterministic calendar queue for discrete-event simulation.

Events are ordered by ``(time, priority, sequence)``.  The sequence number
is assigned at scheduling time, so events scheduled earlier fire earlier
when time and priority tie — this makes every simulation run fully
deterministic for a fixed seed and schedule order (a number set aside
by :meth:`EventQueue.reserve` counts as assigned when it was reserved).

A pending event is one heap entry, the list ``[time, priority, seq, fn,
tag]`` (indexed by :data:`TIME`, :data:`PRIORITY`, :data:`SEQ`,
:data:`FN` and :data:`TAG`), and :meth:`EventQueue.push` returns that
entry as the event's handle.  Heap sifts compare entries as lists; the
``seq`` component is unique per queue, so a comparison never reaches
``fn``.  Cancellation is O(1): :meth:`EventQueue.cancel` clears ``fn``
and the cleared entry is dropped when it reaches the head (lazy
deletion).  A fired entry has already left the heap, so cancelling it
changes nothing.  :meth:`pop_next_before` fuses that sweep with the
pop, so the simulator loop does a single head scan per fired event.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Optional

#: Indices of a heap entry ``[time, priority, seq, fn, tag]``.
TIME, PRIORITY, SEQ, FN, TAG = range(5)


class EventQueue:
    """Min-heap of ``[time, priority, seq, fn, tag]`` entries with lazy cancellation."""

    def __init__(self) -> None:
        self._heap: list[list] = []
        self._next_seq = 0

    def __len__(self) -> int:
        """Live (uncancelled) entries, counted in O(n): the run path never asks."""
        return sum(1 for entry in self._heap if entry[FN] is not None)

    def push(
        self,
        time: float,
        fn: Callable[[], Any],
        priority: int = 0,
        tag: Optional[str] = None,
    ) -> list:
        """Schedule ``fn`` at ``time`` and return its entry as a cancellable handle."""
        if time != time:  # NaN guard
            raise ValueError("event time must not be NaN")
        seq = self._next_seq
        self._next_seq = seq + 1
        entry = [time, priority, seq, fn, tag]
        heapq.heappush(self._heap, entry)
        return entry

    def reserve(self, n: int) -> int:
        """Set ``n`` consecutive sequence numbers aside; return the first."""
        first = self._next_seq
        self._next_seq = first + n
        return first

    def push_reserved(self, seq: int, time: float, fn: Callable[[], Any],
                      priority: int = 0, tag: Optional[str] = None) -> list:
        """:meth:`push` at ``seq``, a number :meth:`reserve` set aside: the
        entry orders ahead of every later push at equal ``(time, priority)``."""
        resume, self._next_seq = self._next_seq, seq
        try:
            return self.push(time, fn, priority, tag)
        finally:
            self._next_seq = resume

    def cancel(self, entry: list) -> None:
        """Cancel a scheduled entry: idempotent, and a no-op once it fired."""
        entry[FN] = None

    def peek_time(self) -> Optional[float]:
        """Time of the earliest live event, or ``None`` if empty."""
        entry = self.peek()
        return None if entry is None else entry[TIME]

    def peek(self) -> Optional[list]:
        """The earliest live entry, left in place, or ``None`` if empty."""
        heap = self._heap
        while heap and heap[0][FN] is None:
            heapq.heappop(heap)
        return heap[0] if heap else None

    def pop(self) -> list:
        """Remove and return the earliest live entry.

        Raises:
            IndexError: if the queue holds no live events.
        """
        entry = self.pop_next_before(None)
        if entry is None:
            raise IndexError("pop from empty EventQueue")
        return entry

    def pop_next_before(self, until: Optional[float], strict: bool = False) -> Optional[list]:
        """Pop the earliest live entry with ``time <= until`` in one sweep.

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
            if head[FN] is None:
                heappop(heap)
                continue
            time = head[TIME]
            if until is not None and (time > until or (strict and time >= until)):
                return None
            return heappop(heap)
        return None

    def clear(self) -> None:
        self._heap.clear()
