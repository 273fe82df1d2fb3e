"""Baseline pack: predictive and passive-trace trackers (DESIGN.md §11).

Two design points bracketing VINESTALK on the speculation axis:

* :class:`PredictiveVineStalk` — maximum speculation: forecast the
  evader's next region from its trace history and pre-configure VSA
  state there ahead of the real ``grow`` (Virtual Network Configuration
  style), trading wasted pre-configuration work for faster path repair;
* :class:`PassiveTraceTracker` — zero speculation *and* zero
  maintenance: regions buffer detections locally and finds reconstruct
  the trajectory at query time, trading find latency for a silent
  network between queries.

The first is the ``"predictive"`` :class:`~repro.scenario.
ScenarioConfig` system, the second an analytic cost model; both run in
the cross-baseline harness (:mod:`repro.analysis.crossbase`).
"""

from .passive_trace import PassiveTraceTracker
from .predictive import PredictiveTracker, PredictiveVineStalk

__all__ = [
    "PassiveTraceTracker",
    "PredictiveTracker",
    "PredictiveVineStalk",
]
