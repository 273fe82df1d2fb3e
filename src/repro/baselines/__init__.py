"""Baseline trackers and locators the paper's related work compares against.

``no-lateral`` and ``predictive`` are :class:`~repro.scenario.
ScenarioConfig` systems; the four analytic cost models share the
:class:`~repro.baselines.analytic.AnalyticTracker` protocol and are
registered in :data:`repro.analysis.crossbase.ANALYTIC_TRACKERS`, the
harness that runs the whole family over one shared mobility grid.
"""

from .analytic import AnalyticTracker, Cost
from .awerbuch_peleg import AwerbuchPelegDirectory
from .flooding import FloodingFinder
from .home_agent import HomeAgentLocator
from .no_lateral import NoLateralTracker, NoLateralVineStalk
from .pack import PassiveTraceTracker, PredictiveTracker, PredictiveVineStalk

__all__ = [
    "AnalyticTracker",
    "AwerbuchPelegDirectory",
    "Cost",
    "FloodingFinder",
    "HomeAgentLocator",
    "NoLateralTracker",
    "NoLateralVineStalk",
    "PassiveTraceTracker",
    "PredictiveTracker",
    "PredictiveVineStalk",
]
