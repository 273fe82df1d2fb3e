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
  trajectory against their operational cost models (the
  :func:`~repro.analysis.experiments.run_baseline_comparison` idiom),
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

from typing import Any, Dict, List, Sequence

SCHEMA = "bench-baselines/1"

#: Registry keys run through the message-level engines.
MESSAGE_TRACKERS = ("vinestalk", "no-lateral", "predictive")
#: Registry keys replayed against analytic cost models.
ANALYTIC_TRACKERS = ("flooding", "home-agent", "awerbuch-peleg", "passive-trace")
ALL_TRACKERS = MESSAGE_TRACKERS + ANALYTIC_TRACKERS

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


def _n_regions() -> int:
    from ..sim.sharded.core import _tiling_for
    from ..scenario import ScenarioConfig

    config = ScenarioConfig(r=GRID["r"], max_level=GRID["max_level"])
    return len(_tiling_for(config).regions())


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
    n_regions = _n_regions()
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
def _make_analytic(tracker: str, hierarchy):
    from ..scenario import SYSTEM_BUILDERS, ScenarioConfig

    config = ScenarioConfig(
        r=GRID["r"], max_level=GRID["max_level"], system=tracker
    )
    return SYSTEM_BUILDERS[tracker](config, hierarchy)


def run_analytic_cell(
    tracker: str,
    preset: str,
    n_moves: int,
    n_finds: int,
    seed: int,
) -> Dict[str, Any]:
    """Replay the cell's frozen script against one analytic cost model.

    Per tracked object one model instance; ``enter`` publishes/places,
    each ``step`` pays the model's move cost, each scripted find pays
    its find cost (issued against the object the script targets).
    Handover heuristics: home-agent rewrites its rendezvous on every
    move (one handoff per move); Awerbuch–Peleg hands over when a move
    triggers a directory rewrite (work beyond the level-0 forwarding
    pointer); flooding and passive-trace maintain nothing.
    """
    from ..service.metrics import handover_summary, latency_percentiles
    from ..topo.cache import shared_grid_hierarchy
    from ..workload import EvaderEnter, EvaderStep, IssueFind, materialize

    hierarchy = shared_grid_hierarchy(GRID["r"], GRID["max_level"])
    script = materialize(_walk(preset, n_moves, n_finds), seed)
    model = default_energy_model()

    instances: Dict[int, Any] = {}
    location: Dict[int, Any] = {}
    handovers: Dict[int, int] = {}
    latencies: List[float] = []
    move_work = 0.0
    find_work = 0.0
    moves = 0
    finds_issued = 0
    finds_completed = 0

    def instance(oid: int):
        if oid not in instances:
            instances[oid] = _make_analytic(tracker, hierarchy)
        return instances[oid]

    for action in script.actions:
        oid = action.object_id
        if isinstance(action, EvaderEnter):
            target = instance(oid)
            location[oid] = action.region
            if tracker == "home-agent":
                target.move(action.region)  # initial publication
            elif tracker == "awerbuch-peleg":
                target.publish(action.region)
            elif tracker == "passive-trace":
                target.move(action.region)
        elif isinstance(action, EvaderStep):
            target = instance(oid)
            location[oid] = action.target
            moves += 1
            if tracker == "flooding":
                continue  # reactive: no per-move cost at all
            costs = target.move(action.target)
            move_work += costs.work
            if tracker == "home-agent":
                handovers[oid] = handovers.get(oid, 0) + 1
            elif tracker == "awerbuch-peleg" and costs.work > 1.0:
                handovers[oid] = handovers.get(oid, 0) + 1
        elif isinstance(action, IssueFind):
            finds_issued += 1
            target = instance(oid)
            if oid not in location:
                continue  # object never entered: find cannot resolve
            if tracker == "flooding":
                costs = target.find(action.origin, location[oid])
                find_work += costs.work
            else:
                costs = target.find(action.origin)
                find_work += costs.work
            latencies.append(costs.time)
            finds_completed += 1

    charged = (move_work + find_work) * (
        model.tx_cost + model.rx_cost
    ) + moves * model.sense_cost
    n_regions = _n_regions()
    idle = model.idle_cost * script.horizon * n_regions
    return {
        "tracker": tracker,
        "preset": preset,
        "fault": "none",
        "kind": "analytic",
        "finds_issued": finds_issued,
        "finds_completed": finds_completed,
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
                if tracker in ANALYTIC_TRACKERS:
                    if fault != "none":
                        continue  # no message channel to perturb
                    cell = run_analytic_cell(
                        tracker, preset, n_moves, n_finds, seed
                    )
                else:
                    cell = run_message_cell(
                        tracker, preset, fault, n_moves, n_finds, seed, shards
                    )
                cells.append(cell)
    classic = [
        c for c in cells
        if c["tracker"] == "vinestalk" and c["fingerprint_match"] is not None
    ]
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
        "energy_model": {
            "tx_cost": default_energy_model().tx_cost,
            "rx_cost": default_energy_model().rx_cost,
            "idle_cost": default_energy_model().idle_cost,
            "sense_cost": default_energy_model().sense_cost,
            "budget": default_energy_model().budget,
        },
        "cells": cells,
        "all_classic_match": all(c["fingerprint_match"] for c in classic),
    }
