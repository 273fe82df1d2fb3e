"""``repro.obs`` — structured observability for any run.

The layer has four legs (DESIGN.md §6):

* **spans** (:mod:`repro.obs.spans`) — context-managed timed regions
  whose self time is charged to named phases (``build``, ``events``,
  ``geocast``, ``lookahead``, ``barrier``);
* **typed events** (:mod:`repro.obs.events`) — schema-versioned
  dataclass records emitted by the hot paths: the trace of a run;
* **export** (:mod:`repro.obs.export`) — the ``obs/1`` JSON artifact
  behind ``repro report --obs``;
* **conformance** (:mod:`repro.obs.conformance`) — an online sampler
  running the Lemma 4.1/4.2 and Theorem 4.8 (``lookAhead``) checks on
  an event-count stride during any run.

Everything is off by default and gated through
:data:`repro.obs._state.OBS` so the disabled cost on the simulation hot
path is one boolean attribute check per site.  Typical use::

    import repro.obs as obs

    with obs.observed() as collector:
        scenario = build(ScenarioConfig(...))
        ...
    print(collector.phase_totals)

The gate and collector are per-process: sweep workers run with
observability off unless a job enables it itself.
"""

from __future__ import annotations

from typing import Optional

from ._state import OBS
from .collector import ObsCollector
from .events import (
    EVENT_TYPES,
    OBS_EVENT_SCHEMA,
    ConformanceViolation,
    FaultCrash,
    FaultRestore,
    FindForwarded,
    FindQueryIssued,
    FoundAnnounced,
    GrowSent,
    MessageDispatched,
    MessagesPerturbed,
    ShrinkSent,
    event_dict,
)
from .spans import NULL_SPAN, Span, SpanRecord, span

__all__ = [
    "OBS",
    "ObsCollector",
    "enable",
    "disable",
    "observed",
    "collector",
    "span",
    "Span",
    "SpanRecord",
    "NULL_SPAN",
    "EVENT_TYPES",
    "OBS_EVENT_SCHEMA",
    "event_dict",
    "GrowSent",
    "ShrinkSent",
    "FoundAnnounced",
    "FindForwarded",
    "FindQueryIssued",
    "MessageDispatched",
    "MessagesPerturbed",
    "FaultCrash",
    "FaultRestore",
    "ConformanceViolation",
    "ConformanceSampler",
]


def enable(
    spans: bool = True,
    events: bool = True,
    max_events: int = 10_000,
    max_spans: int = 2_000,
) -> ObsCollector:
    """Turn observability on; returns the fresh active collector.

    Re-enabling replaces the previous collector (a run's telemetry is
    one collector's lifetime).
    """
    new = ObsCollector(max_events=max_events, max_spans=max_spans)
    OBS.collector = new
    OBS.spans_enabled = bool(spans)
    OBS.events_enabled = bool(events)
    return new


def disable() -> Optional[ObsCollector]:
    """Turn observability off; returns the collector that was active."""
    previous = OBS.collector
    OBS.spans_enabled = False
    OBS.events_enabled = False
    OBS.collector = None
    return previous


def collector() -> Optional[ObsCollector]:
    """The active collector, or None when observability is off."""
    return OBS.collector


class observed:
    """Context manager: ``with observed() as collector: ...``.

    Enables on entry, disables on exit, restoring whatever gate state
    was active before (so nested/overlapping use degrades sanely).
    """

    def __init__(self, spans: bool = True, events: bool = True,
                 max_events: int = 10_000, max_spans: int = 2_000) -> None:
        self._args = (spans, events, max_events, max_spans)
        self._saved = None

    def __enter__(self) -> ObsCollector:
        self._saved = (OBS.spans_enabled, OBS.events_enabled, OBS.collector)
        spans, events, max_events, max_spans = self._args
        return enable(spans=spans, events=events,
                      max_events=max_events, max_spans=max_spans)

    def __exit__(self, *exc) -> bool:
        OBS.spans_enabled, OBS.events_enabled, OBS.collector = self._saved
        return False


def __getattr__(name: str):
    # Lazy: the conformance sampler imports repro.core, which imports
    # the hot modules that import this package — resolving it on first
    # attribute access keeps the package import-light and acyclic.
    if name == "ConformanceSampler":
        from .conformance import ConformanceSampler

        return ConformanceSampler
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
