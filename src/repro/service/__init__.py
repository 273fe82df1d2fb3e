"""Multi-object tracking as a service (``repro.service``, DESIGN.md §9).

One cluster hierarchy hosts M independent tracking lanes; this package
adds the service front-end on top:

* :class:`~repro.service.load.LoadGenerator` — an open-loop workload
  (Poisson / burst / uniform find arrivals over K client origins, M
  roaming objects) implementing the unified
  :class:`~repro.workload.Workload` protocol;
* :class:`~repro.service.service.TrackingService` — admits a workload
  against either engine (``plain`` single-loop or ``sharded`` PDES) and
  returns the run's :class:`~repro.sim.sharded.core.RunRecord` with
  per-find records, per-object handover counts and latency metrics;
* :func:`~repro.service.service.cross_check` — the plain ≡ sharded
  verdict: one materialized script, both engines, equal fingerprints.

Its speed is measured by the ``service-m2k`` / ``armed-m1k`` /
``sharded-k2`` workloads of ``benchmarks/perf``.
"""

from .load import ARRIVALS, LoadGenerator
from .metrics import latency_percentiles, service_metrics
from .service import TrackingService, cross_check

__all__ = [
    "ARRIVALS",
    "LoadGenerator",
    "TrackingService",
    "cross_check",
    "latency_percentiles",
    "service_metrics",
]
