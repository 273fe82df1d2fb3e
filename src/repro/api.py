"""The stable public facade (``repro.api``).

One import surface for everything a harness, notebook or downstream
script needs; the deep module paths remain importable, but this module
is the compatibility contract — names exported here do not move or
change shape without a deprecation note in CHANGES.md.

Typical session::

    from repro import api

    config = api.ScenarioConfig(r=2, max_level=2, seed=7, shards=2,
                                n_objects=8)
    load = api.LoadGenerator(tiling=api.build(config).hierarchy.tiling,
                             n_objects=8, n_finds=100, deadline=60.0)
    result = api.TrackingService(config, engine="sharded").run(load)
    print(result.metrics["latency"]["p95"])

Grouped exports:

* **scenario** — :class:`ScenarioConfig`, :class:`Scenario`,
  :func:`build`;
* **workload protocol** — :class:`Workload`, :class:`ScriptedWorkload`,
  :func:`materialize`;
* **service** — :class:`LoadGenerator`, :class:`TrackingService`,
  :func:`service_metrics`, :func:`latency_percentiles`, and
  :func:`cross_check` — the plain ≡ sharded verdict: one materialized
  script on both engines, ``(plain, sharded, match)``;
* **engines** — :class:`Simulator` (plain event loop),
  :class:`ShardedSimulator` and :class:`RunRecord` — the one record
  every scripted run returns, on either engine (``cgcast.observe``
  callbacks take *lists* of send records, complete whenever the loop is idle);
* **checkpoint / replay** — :func:`snapshot_scenario`, :func:`save`,
  :func:`load`, :func:`restore_scenario`, :func:`read_run` (a run
  file's ``(config, script)``) and :func:`bisect_divergence`;
* **experiment sweeps** — :func:`run_find_sweep`, :func:`run_move_walk`,
  :func:`run_service_mk`, :func:`run_chaos`, :func:`run_mobility_regime`;
* **mobility generation** — :class:`GeneratorSpec` and the combinators
  (:class:`Walk`, :class:`WaypointGraph`, :class:`Obstacles`,
  :class:`Convoy`, :class:`Hotspots`, :class:`Dither`, :class:`Replay`,
  :class:`Compose`, :class:`Switch`, :class:`TimeSlice`),
  :func:`mobility_preset` / :func:`mobility_presets`,
  :class:`SpeedLimits`, :class:`MobilityTrace`, :func:`generate_traces`
  (DESIGN.md §10);
* **baselines & energy** (DESIGN.md §11) — the baseline pack
  (:class:`PredictiveVineStalk`, :class:`PassiveTraceTracker`) and
  analytic locators (:class:`HomeAgentLocator`,
  :class:`AwerbuchPelegDirectory`, :class:`FloodingFinder`), the energy
  subsystem (:class:`EnergyModel`, :class:`EnergyLedger`,
  :class:`AdaptiveRatePolicy`, :func:`energy_metrics`,
  :func:`merge_energy`) and the cross-baseline harness
  (:func:`run_cross_baselines`).
"""

from __future__ import annotations

from .analysis.experiments import (
    run_find_sweep,
    run_move_walk,
    run_service_mk,
)
from .analysis.crossbase import run_cross_baselines
from .analysis.recovery import run_chaos
from .baselines import (
    AwerbuchPelegDirectory,
    FloodingFinder,
    HomeAgentLocator,
    NoLateralVineStalk,
    PassiveTraceTracker,
    PredictiveVineStalk,
)
from .ckpt import (
    Snapshot,
    bisect_divergence,
    load,
    read_run,
    restore_scenario,
    save,
    snapshot_scenario,
)
from .core.vinestalk import VineStalk
from .energy import (
    AdaptiveRatePolicy,
    EnergyLedger,
    EnergyModel,
    energy_metrics,
    merge_energy,
)
from .mobility.gen import (
    Compose,
    Convoy,
    Dither,
    GeneratedWalk,
    GeneratorSpec,
    Hotspots,
    MobilityTrace,
    Obstacles,
    Replay,
    SpeedLimits,
    Switch,
    TimeSlice,
    Walk,
    WaypointGraph,
    run_mobility_regime,
)
from .mobility.gen import generate as generate_traces
from .mobility.gen import preset as mobility_preset
from .mobility.gen import preset_names as mobility_presets
from .scenario import Scenario, ScenarioConfig, build
from .service import (
    LoadGenerator,
    TrackingService,
    cross_check,
    latency_percentiles,
    service_metrics,
)
from .sim.engine import Simulator
from .sim.sharded import RunRecord, ShardedSimulator
from .workload import ScriptedWorkload, Workload, materialize

__all__ = [
    # scenario
    "Scenario",
    "ScenarioConfig",
    "VineStalk",
    "build",
    # workload protocol
    "ScriptedWorkload",
    "Workload",
    "materialize",
    # service
    "LoadGenerator",
    "TrackingService",
    "cross_check",
    "latency_percentiles",
    "service_metrics",
    # engines
    "RunRecord",
    "ShardedSimulator",
    "Simulator",
    # checkpoint / replay
    "Snapshot",
    "bisect_divergence",
    "load",
    "read_run",
    "restore_scenario",
    "save",
    "snapshot_scenario",
    # experiment sweeps
    "run_chaos",
    "run_find_sweep",
    "run_move_walk",
    "run_service_mk",
    "run_mobility_regime",
    # mobility generation (DESIGN.md §10)
    "GeneratorSpec",
    "Walk",
    "WaypointGraph",
    "Obstacles",
    "Convoy",
    "Hotspots",
    "Dither",
    "Replay",
    "Compose",
    "Switch",
    "TimeSlice",
    "GeneratedWalk",
    "MobilityTrace",
    "SpeedLimits",
    "generate_traces",
    "mobility_preset",
    "mobility_presets",
    # baselines & energy (DESIGN.md §11)
    "AwerbuchPelegDirectory",
    "FloodingFinder",
    "HomeAgentLocator",
    "NoLateralVineStalk",
    "PassiveTraceTracker",
    "PredictiveVineStalk",
    "AdaptiveRatePolicy",
    "EnergyLedger",
    "EnergyModel",
    "energy_metrics",
    "merge_energy",
    "run_cross_baselines",
]
