"""The per-process observability collector.

One :class:`ObsCollector` aggregates everything the instrumented hot
paths produce while observability is enabled:

* **typed events** — a bounded deque of the newest events;
* **counts** — exact events seen per kind (they survive deque
  eviction; a violation is counted as its ``conformance-violation``
  event);
* **subscribers** — synchronous callbacks invoked per event (the
  conformance sampler's Lemma 4.2 feed, E6's search-level watch).

The collector is plain state — it never touches the simulation — which
is what the golden A/B test relies on.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Dict, List


class ObsCollector:
    """Aggregation point for typed events and their counts.

    Args:
        max_events: Newest typed events retained (counts are exact
            regardless; only the retained sample is bounded).
    """

    def __init__(self, max_events: int = 10_000) -> None:
        # A plain dict: ``Counter[k] += 1`` costs ~2.5x per emit.
        self.counts: Dict[str, int] = {}
        self.events: deque = deque(maxlen=max_events)
        self.events_seen = 0
        self.events_dropped = 0
        self._subscribers: List[Callable[[Any], None]] = []

    def emit(self, event: Any) -> None:
        """Record one typed event and notify subscribers.

        When the bounded deque is full, appending evicts the oldest
        retained event; ``events_dropped`` counts those evictions so the
        export can say how much of the stream the sample is missing
        (``dropped + retained == seen`` always).
        """
        self.events_seen += 1
        events = self.events
        if len(events) == events.maxlen:  # never true for an unbounded deque
            self.events_dropped += 1
        events.append(event)
        counts = self.counts
        kind = event.kind
        counts[kind] = counts.get(kind, 0) + 1
        if self._subscribers:
            for fn in self._subscribers:
                fn(event)

    def subscribe(self, fn: Callable[[Any], None]) -> None:
        """Invoke ``fn(event)`` synchronously on every future event."""
        self._subscribers.append(fn)

    def unsubscribe(self, fn: Callable[[Any], None]) -> None:
        """Remove a subscriber (no-op when absent)."""
        try:
            self._subscribers.remove(fn)
        except ValueError:
            pass

    @property
    def subscriber_count(self) -> int:
        return len(self._subscribers)

    def events_by_kind(self) -> Dict[str, int]:
        """Exact per-kind event counts."""
        return dict(self.counts)
