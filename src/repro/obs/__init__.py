"""``repro.obs`` — structured observability for any run.

The layer has three legs (DESIGN.md §6):

* **typed events** (:mod:`repro.obs.events`) — schema-versioned
  dataclass records emitted by the hot paths: the trace of a run;
* **export** (:mod:`repro.obs.export`) — the ``obs/2`` JSON artifact
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
    print(collector.events_by_kind())

Host-time attribution is not this package's job: the bench tracer
(``benchmarks/perf/run.py --trace 1``) reports per-layer self times.

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

__all__ = [
    "OBS",
    "ObsCollector",
    "enable",
    "disable",
    "observed",
    "collector",
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


def enable(max_events: int = 10_000) -> ObsCollector:
    """Turn typed events on; returns the fresh active collector.

    Re-enabling replaces the previous collector (a run's telemetry is
    one collector's lifetime).
    """
    new = ObsCollector(max_events=max_events)
    OBS.collector = new
    OBS.events_enabled = True
    return new


def disable() -> Optional[ObsCollector]:
    """Turn observability off; returns the collector that was active."""
    previous = OBS.collector
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

    ``spans=False, events=True`` are the only accepted values of the
    two legacy keywords, kept because the speed bench passes them
    literally; any other value raises :class:`ValueError`.  They go
    when the bench's call drops them (ROADMAP item 2).
    """

    def __init__(self, *, max_events: int = 10_000,
                 spans: bool = False, events: bool = True) -> None:
        if spans is not False or events is not True:
            raise ValueError(
                "observed() records typed events only: spans=False and "
                f"events=True are the sole values (got spans={spans!r}, "
                f"events={events!r})"
            )
        self._max_events = max_events
        self._saved = None

    def __enter__(self) -> ObsCollector:
        self._saved = (OBS.events_enabled, OBS.collector)
        return enable(max_events=self._max_events)

    def __exit__(self, *exc) -> bool:
        OBS.events_enabled, OBS.collector = self._saved
        return False


def __getattr__(name: str):
    # Lazy: the conformance sampler imports repro.core, which imports
    # the hot modules that import this package — resolving it on first
    # attribute access keeps the package import-light and acyclic.
    if name == "ConformanceSampler":
        from .conformance import ConformanceSampler

        return ConformanceSampler
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
