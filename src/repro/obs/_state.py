"""The observability gate — the only obs name hot paths import.

Hot modules (:mod:`repro.core.tracker`, :mod:`repro.geocast.cgcast`,
:mod:`repro.faults.injector`) guard every
obs action behind one attribute check on the module-level :data:`OBS`
singleton::

    if OBS.events_enabled:
        OBS.emit(GrowSent(...))

With observability off (the default) the guard is a single boolean
attribute load per site — no allocation, no call — which is what keeps
the obs-off overhead within the ≤2% budget on the ``benchmarks/perf``
``events_per_s`` number.  This module deliberately imports nothing from the
rest of the package so the hot paths never pull in the collector or
export machinery.

The gate is per-process (like the topology cache and the events-fired
counter): sweep workers start with observability off unless their job
enables it.
"""

from __future__ import annotations

from typing import Any, Optional


class ObsGate:
    """Mutable per-process switchboard for the observability layer.

    Attributes:
        events_enabled: Gate for typed structured events.
        collector: The active :class:`~repro.obs.collector.ObsCollector`
            (None when observability is off).
    """

    __slots__ = ("events_enabled", "collector")

    def __init__(self) -> None:
        self.events_enabled = False
        self.collector: Optional[Any] = None

    def emit(self, event: Any) -> None:
        """Forward a typed event to the collector (if one is active)."""
        collector = self.collector
        if collector is not None:
            collector.emit(event)


#: The per-process gate.  Managed by :func:`repro.obs.enable` /
#: :func:`repro.obs.disable`; read (never written) by the hot paths.
OBS = ObsGate()
