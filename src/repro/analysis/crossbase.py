"""Cross-baseline evaluation harness (schema ``bench-baselines/1``).

Runs every registered tracker over a shared mobility-preset × fault-plan
grid and emits one JSON artifact positioning the whole baseline family
on the axes the paper cares about: find latency, message work,
handovers, and energy / projected lifetime.

Two tracker families share each grid cell's *workload* (the same
:class:`~repro.mobility.gen.workload.GeneratedWalk` script, materialized
at the same seed):

* **message-level** trackers (``vinestalk``, ``no-lateral``,
  ``predictive``) run the script through the
  :class:`~repro.service.service.TrackingService` on *both* engines —
  the plain reference loop and the K-sharded PDES driver — with an
  :class:`~repro.energy.EnergyModel` attached, and the cell records the
  cross-engine fingerprint verdict alongside the measured metrics;
* **analytic** trackers (``flooding``, ``home-agent``,
  ``awerbuch-peleg``, ``passive-trace``) replay the identical scripted
  trajectory through the one :class:`~repro.baselines.analytic.
  AnalyticTracker` protocol (``enter``/``move``/``find``/``handover``),
  with energy derived from the same cost model applied to their
  move/find work and detection counts.

Fault cells (message loss) run message trackers only —
the analytic models have no channel to perturb.

The one entry point is ``repro baselines``; the committed
``BENCH_baselines.json`` is its ``--faults none,loss --moves 10
--finds 5 --out BENCH_baselines.json`` run, and
``tests/analysis/test_crossbase.py`` holds the file to a regeneration.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Any, Dict, List, Sequence, Type

from ..baselines.analytic import AnalyticTracker
from ..baselines.awerbuch_peleg import AwerbuchPelegDirectory
from ..baselines.flooding import FloodingFinder
from ..baselines.home_agent import HomeAgentLocator
from ..baselines.pack.passive_trace import PassiveTraceTracker

SCHEMA = "bench-baselines/1"

#: ScenarioConfig system keys run through the message-level engines.
MESSAGE_TRACKERS = ("vinestalk", "no-lateral", "predictive")
#: The message tracker whose cross-engine verdict is the grid's verdict.
CLASSIC = "vinestalk"
#: Analytic cost models, replayed through the AnalyticTracker protocol.
ANALYTIC_TRACKERS: Dict[str, Type[AnalyticTracker]] = {
    "flooding": FloodingFinder,
    "home-agent": HomeAgentLocator,
    "awerbuch-peleg": AwerbuchPelegDirectory,
    "passive-trace": PassiveTraceTracker,
}
ALL_TRACKERS = MESSAGE_TRACKERS + tuple(ANALYTIC_TRACKERS)

#: The shared mobility grid (registered generator presets).
PRESETS = ("uniform-walk", "convoy-line", "dither")

#: Fault axis: ``none`` is the fault-free grid; ``loss`` (message
#: trackers only) adds 5% message loss.
FAULTS = ("none", "loss")

LOSS_RATE = 0.05

#: Grid world: small enough that the full grid stays CI-friendly.
GRID = {"r": 2, "max_level": 2}


def default_energy_model():
    """The grid's shared cost model (budget ⇒ finite lifetime cells)."""
    from ..energy import EnergyModel

    return EnergyModel(
        tx_cost=1.0, rx_cost=0.5, idle_cost=0.01, sense_cost=0.2, budget=500.0
    )


def _fault_plan(fault: str):
    if fault == "none":
        return None
    if fault == "loss":
        from ..faults.plan import FaultPlan, MessageLoss

        return FaultPlan.of(MessageLoss(rate=LOSS_RATE))
    raise ValueError(f"unknown fault axis value {fault!r}")


def _walk(preset: str, n_moves: int, n_finds: int):
    from ..mobility.gen.workload import GeneratedWalk

    return GeneratedWalk(
        r=GRID["r"],
        max_level=GRID["max_level"],
        mobility=preset,
        n_moves=n_moves,
        n_finds=n_finds,
    )


def _tiling():
    """The grid world's region tiling (the process topology cache's)."""
    from ..topo.cache import shared_grid_hierarchy

    return shared_grid_hierarchy(GRID["r"], GRID["max_level"]).tiling


# ----------------------------------------------------------------------
# Message-level cells
# ----------------------------------------------------------------------
def run_message_cell(
    tracker: str,
    preset: str,
    fault: str,
    n_moves: int,
    n_finds: int,
    seed: int,
    shards: int,
) -> Dict[str, Any]:
    """One (tracker, preset, fault) cell on both engines."""
    from ..energy import energy_metrics
    from ..scenario import ScenarioConfig
    from ..service.service import cross_check

    model = default_energy_model()
    config = ScenarioConfig(
        r=GRID["r"],
        max_level=GRID["max_level"],
        system=tracker,
        seed=seed,
        shards=shards,
        energy=model,
        fault_plan=_fault_plan(fault),
    )
    plain, sharded, match = cross_check(
        config, _walk(preset, n_moves, n_finds)
    )
    n_regions = len(_tiling().regions())
    energy = dict(
        energy_metrics(plain.energy, model, plain.now, n_regions)
    )
    if plain.energy is not None:
        energy["totals"] = dict(plain.energy["totals"])
    sharded_energy_total = (
        sharded.energy["totals"]["total"] if sharded.energy else None
    )
    return {
        "tracker": tracker,
        "preset": preset,
        "fault": fault,
        "kind": "message",
        "finds_issued": plain.finds_issued,
        "finds_completed": plain.finds_completed,
        "find_latency": plain.metrics["latency"],
        "message_work": dict(plain.work),
        "handovers": {
            "total": plain.metrics["handovers_total"],
            "summary": plain.metrics["handovers"],
        },
        "energy": energy,
        "preconfig": plain.preconfig,
        "engines": {
            "plain": plain.canonical_fingerprint,
            "sharded": sharded.canonical_fingerprint,
            "shards": sharded.shards,
            "sharded_energy_total": sharded_energy_total,
        },
        "fingerprint_match": match,
    }


# ----------------------------------------------------------------------
# Analytic cells
# ----------------------------------------------------------------------
def run_analytic_cell(
    tracker: str,
    preset: str,
    n_moves: int,
    n_finds: int,
    seed: int,
) -> Dict[str, Any]:
    """Replay the cell's frozen script against one analytic cost model.

    Per tracked object one model instance: ``enter`` places it (a setup
    cost stays out of the cell's move work), each ``step`` pays the
    model's move cost and counts a handover when the model says the
    move handed its record over, each scripted find pays its find cost
    (issued against the object the script targets).
    """
    from ..service.metrics import handover_summary, latency_percentiles
    from ..workload import EvaderEnter, EvaderStep, IssueFind, materialize

    tiling = _tiling()
    script = materialize(_walk(preset, n_moves, n_finds), seed)
    model = default_energy_model()

    instances: Dict[int, AnalyticTracker] = {}
    handovers: Dict[int, int] = {}
    latencies: List[float] = []
    move_work = 0.0
    find_work = 0.0
    finds_issued = 0

    for action in script.actions:
        oid = action.object_id
        if isinstance(action, EvaderEnter):
            instances[oid] = ANALYTIC_TRACKERS[tracker](tiling)
            instances[oid].enter(action.region)
        elif isinstance(action, EvaderStep):
            target = instances[oid]
            costs = target.move(action.target)
            move_work += costs.work
            if target.handover(costs):
                handovers[oid] = handovers.get(oid, 0) + 1
        elif isinstance(action, IssueFind):
            finds_issued += 1
            if oid in instances:  # an object never entered cannot be found
                costs = instances[oid].find(action.origin)
                find_work += costs.work
                latencies.append(costs.time)

    moves = sum(target.moves for target in instances.values())
    charged = (move_work + find_work) * (
        model.tx_cost + model.rx_cost
    ) + moves * model.sense_cost
    n_regions = len(tiling.regions())
    idle = model.idle_cost * script.horizon * n_regions
    return {
        "tracker": tracker,
        "preset": preset,
        "fault": "none",
        "kind": "analytic",
        "finds_issued": finds_issued,
        "finds_completed": len(latencies),
        "find_latency": latency_percentiles(latencies),
        "message_work": {
            "move": move_work,
            "find": find_work,
            "other": 0.0,
            "total": move_work + find_work,
        },
        "handovers": {
            "total": sum(handovers.values()),
            "summary": handover_summary(handovers),
        },
        "energy": {
            "charged_energy": charged,
            "idle_energy": idle,
            "total_energy": charged + idle,
            "max_region_energy": None,
            "mean_region_energy": (
                (charged + idle) / n_regions if n_regions else 0.0
            ),
            "first_node_death": None,
            "network_lifetime": None,
        },
        "preconfig": None,
        "engines": None,
        "fingerprint_match": None,
    }


# ----------------------------------------------------------------------
# The grid
# ----------------------------------------------------------------------
def run_cross_baselines(
    trackers: Sequence[str] = ALL_TRACKERS,
    presets: Sequence[str] = PRESETS,
    faults: Sequence[str] = ("none",),
    n_moves: int = 6,
    n_finds: int = 3,
    seed: int = 7,
    shards: int = 2,
) -> Dict[str, Any]:
    """Run the (tracker × preset × fault) grid; the artifact payload."""
    unknown = [t for t in trackers if t not in ALL_TRACKERS]
    if unknown:
        raise ValueError(
            f"unknown trackers {unknown!r}; registered: {ALL_TRACKERS}"
        )
    cells: List[Dict[str, Any]] = []
    for preset in presets:
        for fault in faults:
            for tracker in trackers:
                if tracker in MESSAGE_TRACKERS:
                    cells.append(run_message_cell(
                        tracker, preset, fault, n_moves, n_finds, seed, shards
                    ))
                elif fault == "none":  # no message channel to perturb
                    cells.append(run_analytic_cell(
                        tracker, preset, n_moves, n_finds, seed
                    ))
    if not cells:
        raise ValueError(
            "the selection leaves no cell: analytic trackers have no "
            "fault axis, so they run only under fault 'none'"
        )
    classic = [c["fingerprint_match"] for c in cells if c["tracker"] == CLASSIC]
    return {
        "schema": SCHEMA,
        "grid": {
            "trackers": list(trackers),
            "presets": list(presets),
            "faults": list(faults),
            "n_moves": n_moves,
            "n_finds": n_finds,
            "seed": seed,
            "shards": shards,
            **GRID,
        },
        "energy_model": asdict(default_energy_model()),
        "cells": cells,
        # None when no classic cell ran: nothing was compared.
        "all_classic_match": all(classic) if classic else None,
    }
