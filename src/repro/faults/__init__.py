"""Deterministic, seed-driven fault injection (`repro.faults`).

Declare *what* goes wrong as a :class:`FaultPlan` of composable
:class:`FaultRule` values; :class:`FaultInjector` arms the plan
against a built system through the explicit hooks each layer exposes.  Same seed + same plan ⇒
bit-identical execution; a null plan ⇒ the unperturbed execution.

Quick start::

    from repro.scenario import ScenarioConfig, build
    from repro.faults import FaultPlan, MessageLoss, VsaCrashes

    plan = FaultPlan.of(
        MessageLoss(rate=0.1, channel="both"),
        VsaCrashes(rate=0.02, period=50.0, downtime=100.0),
        horizon=400.0,
    )
    scenario = build(ScenarioConfig(r=3, max_level=2, seed=7,
                                    system="stabilizing", fault_plan=plan))
"""

from .injector import FaultInjector, FaultStats
from .plan import (
    CHANNEL_BOTH,
    CHANNEL_CGCAST,
    CHANNEL_VBCAST,
    FaultPlan,
    FaultRule,
    GpsStaleness,
    LagSpike,
    MessageDuplication,
    MessageJitter,
    MessageLoss,
    RegionBlackout,
    VsaCrashes,
    default_plan,
)

__all__ = [
    "CHANNEL_BOTH",
    "CHANNEL_CGCAST",
    "CHANNEL_VBCAST",
    "FaultInjector",
    "FaultPlan",
    "FaultRule",
    "FaultStats",
    "GpsStaleness",
    "LagSpike",
    "MessageDuplication",
    "MessageJitter",
    "MessageLoss",
    "RegionBlackout",
    "VsaCrashes",
    "default_plan",
]
