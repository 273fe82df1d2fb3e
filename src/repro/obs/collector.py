"""The per-process observability collector.

One :class:`ObsCollector` aggregates everything the instrumented hot
paths produce while observability is enabled:

* **phase totals** — self-time seconds per named phase, fed by
  :class:`~repro.obs.spans.Span` exits and direct :meth:`charge` calls;
* **span records** — finished spans (bounded; overflow is counted, not
  silently dropped);
* **typed events** — a bounded deque of the newest events plus a
  per-kind counter in an embedded
  :class:`~repro.sim.metrics.MetricsRegistry` (so event counts survive
  deque eviction);
* **subscribers** — synchronous callbacks invoked per event (the
  conformance sampler's Lemma 4.2 feed, E6's search-level watch).

The collector is plain state — it never touches the simulation — which
is what the golden A/B test relies on.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Any, Callable, Dict, List

from .spans import Span, SpanRecord


class ObsCollector:
    """Aggregation point for spans, phases, typed events and metrics.

    Args:
        max_events: Newest typed events retained (counts are exact
            regardless; only the retained sample is bounded).
        max_spans: Finished span records retained; further spans still
            charge their phase but only bump ``spans_dropped``.
    """

    def __init__(self, max_events: int = 10_000, max_spans: int = 2_000) -> None:
        # Lazy: the obs package is imported by repro.sim.engine, so a
        # top-level metrics import here would re-enter repro.sim while
        # its __init__ is still executing.
        from ..sim.metrics import MetricsRegistry

        self.metrics = MetricsRegistry()
        self.events: deque = deque(maxlen=max_events)
        self.events_seen = 0
        self.events_dropped = 0
        self.spans: List[SpanRecord] = []
        self.spans_dropped = 0
        self.max_spans = max_spans
        self.phase_totals: Dict[str, float] = {}
        self.epoch = time.perf_counter()
        self._span_stack: List[Span] = []
        self._subscribers: List[Callable[[Any], None]] = []
        # event kind -> its ``events.<kind>`` counter in ``metrics``.
        self._kind_counters: Dict[str, Any] = {}

    # ------------------------------------------------------------------
    # Typed events
    # ------------------------------------------------------------------
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
        kind = event.kind
        counter = self._kind_counters.get(kind)
        if counter is None:
            counter = self._kind_counters[kind] = self.metrics.counter(
                f"events.{kind}"
            )
        counter.add()
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
        """Exact per-kind event counts (from the embedded metrics)."""
        return {
            name[len("events."):]: counter.count
            for name, counter in self.metrics.counters().items()
            if name.startswith("events.")
        }

    # ------------------------------------------------------------------
    # Spans / phases
    # ------------------------------------------------------------------
    def push_span(self, span: Span) -> None:
        self._span_stack.append(span)

    def finish_span(self, span: Span, duration: float) -> None:
        """Close ``span``: charge self time, attribute child time, record."""
        stack = self._span_stack
        if stack and stack[-1] is span:
            stack.pop()
        self_time = max(0.0, duration - span.child_seconds)
        totals = self.phase_totals
        totals[span.phase] = totals.get(span.phase, 0.0) + self_time
        if stack:
            stack[-1].child_seconds += duration
        if len(self.spans) < self.max_spans:
            self.spans.append(SpanRecord(
                name=span.name,
                phase=span.phase,
                start_s=span.start - self.epoch,
                duration_s=duration,
                self_s=self_time,
                depth=len(stack),
            ))
        else:
            self.spans_dropped += 1

    def charge(self, phase: str, seconds: float) -> None:
        """Add ``seconds`` to ``phase`` without a Span object.

        The duration also counts as child time of the innermost open
        span, so an enclosing span's phase is not double-charged — the
        per-message geocast dispatch path uses this to stay allocation
        free.
        """
        totals = self.phase_totals
        totals[phase] = totals.get(phase, 0.0) + seconds
        stack = self._span_stack
        if stack:
            stack[-1].child_seconds += seconds

    def phase_snapshot(self) -> Dict[str, float]:
        """A plain copy of the phase totals (for before/after deltas)."""
        return dict(self.phase_totals)
