"""Recovery metrics under injected faults (the chaos harness).

:func:`run_chaos` drives one system variant through a fixed
move/find workload while a :class:`~repro.faults.plan.FaultPlan`
perturbs the run, then measures how the system comes back:

* **time to reconsistency** — how long after the fault window closes
  until :func:`~repro.core.consistency.check_consistent` holds again
  (None when it never does within the wait budget);
* **find success rate and retry count** — completed finds over issued
  finds, with per-find re-issues counted, under churn;
* **work overhead** — communication work of the faulted run over the
  identical fault-free (golden) run at the same simulation time.

The golden twin executes the *identical* workload — the evader
trajectory and find schedule are driven by RNGs seeded from the config
and drawn at fixed simulation times, independent of what the faults do
— so the overhead ratio isolates the cost of the faults themselves.

Everything is deterministic for a fixed config: same seed + same plan
⇒ the same :class:`ChaosResult`, bit for bit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Optional, Union

from ..core.consistency import check_consistent
from ..core.state import capture_snapshot
from ..faults.plan import default_plan
from ..mobility.models import RandomNeighborWalk
from ..scenario import ScenarioConfig, build

#: Workload cadence inside the fault window.
MOVE_PERIOD = 20.0
FIND_PERIOD = 30.0
#: Per-find retry policy (retries are what buys success under churn).
FIND_RETRY_AFTER = 25.0
MAX_RETRIES = 3
#: How long past the horizon to wait for reconsistency before declaring
#: the run unrecovered, and the polling interval.
MAX_RECOVERY_WAIT = 600.0
PROBE = 5.0


@dataclass
class ChaosResult:
    """Outcome of one chaos run (see module docstring)."""

    system: str
    loss_rate: float
    crash_rate: float
    seed: int
    duration: float
    moves: int
    finds_issued: int
    finds_completed: int
    find_retries: int
    recovered: bool
    reconsistency_time: Optional[float]
    work_faulted: float
    work_golden: float
    fault_events: Dict[str, int] = field(default_factory=dict)

    @property
    def find_success_rate(self) -> float:
        return self.finds_completed / max(1, self.finds_issued)

    @property
    def work_overhead(self) -> float:
        """Faulted-run work over golden-run work at the fault horizon."""
        if self.work_golden == 0.0:
            return float("inf") if self.work_faulted else 1.0
        return self.work_faulted / self.work_golden


def _consistent(system) -> bool:
    """Whether the tracking structure is consistent right now."""
    if system.evader is None or system.evader.region is None:
        return False
    snapshot = capture_snapshot(system)
    return not check_consistent(snapshot, system.hierarchy, system.evader.region)


def _drive(config: ScenarioConfig, duration: float):
    """Build ``config`` and run the fixed workload to the fault horizon.

    Returns ``(scenario, moves_scheduled, finds_scheduled)``.  The
    workload is identical for any two configs sharing a seed: every RNG
    draw happens at a fixed simulation time, regardless of faults.
    """
    scenario = build(config)
    system = scenario.system
    regions = system.hierarchy.tiling.regions()
    center = regions[len(regions) // 2]
    evader = system.make_evader(
        RandomNeighborWalk(start=center),
        dwell=1e12,
        start=center,
        rng=random.Random(config.seed),
    )
    if hasattr(system, "start_anchor_refresh"):
        system.start_anchor_refresh()

    moves = 0
    t = MOVE_PERIOD
    while t <= duration:
        system.sim.call_at(t, evader.step, tag="chaos-move")
        moves += 1
        t += MOVE_PERIOD

    find_rng = random.Random(config.seed + 1)
    finds = 0
    t = FIND_PERIOD
    while t <= duration:

        def issue() -> None:
            origin = find_rng.choice(regions)
            system.issue_find(
                origin, retry_after=FIND_RETRY_AFTER, max_retries=MAX_RETRIES
            )

        system.sim.call_at(t, issue, tag="chaos-find")
        finds += 1
        t += FIND_PERIOD

    system.sim.run_until(duration)
    return scenario, moves, finds


def run_chaos(
    r: int = 3,
    max_level: int = 2,
    seed: int = 7,
    system: Union[str, type] = "stabilizing",
    loss_rate: float = 0.05,
    crash_rate: float = 0.0,
    duration: float = 240.0,
) -> ChaosResult:
    """One chaos run plus its golden twin; returns the recovery metrics.

    Args:
        r, max_level, seed: World geometry and root seed.
        system: Scenario registry key (or class) of the variant to run.
        loss_rate, crash_rate: The :func:`~repro.faults.plan.default_plan`
            knobs; the plan's horizon is ``duration``.
        duration: Length of the fault window; the workload also stops here.
    """
    plan = default_plan(
        loss_rate=loss_rate, crash_rate=crash_rate, horizon=duration
    )
    config = ScenarioConfig(
        r=r, max_level=max_level, seed=seed, system=system, fault_plan=plan
    )
    scenario, moves, finds_scheduled = _drive(config, duration)
    sys_obj = scenario.system
    work_at_horizon = scenario.accountant.epoch().total

    # Recovery: poll consistency after the fault window closes.
    recovery_start = sys_obj.sim.now
    reconsistency: Optional[float] = None
    while sys_obj.sim.now - recovery_start <= MAX_RECOVERY_WAIT:
        if _consistent(sys_obj):
            reconsistency = sys_obj.sim.now - recovery_start
            break
        sys_obj.sim.run_until(sys_obj.sim.now + PROBE)
    if reconsistency is None and _consistent(sys_obj):
        reconsistency = sys_obj.sim.now - recovery_start

    records = list(sys_obj.finds.records.values())
    completed = [rec for rec in records if rec.completed]
    retries = sum(rec.retries for rec in records)

    # Golden twin: same workload, no faults, measured at the horizon.
    golden, _, _ = _drive(config.with_(fault_plan=None), duration)
    work_golden = golden.accountant.epoch().total

    name = system if isinstance(system, str) else system.__name__
    return ChaosResult(
        system=name,
        loss_rate=loss_rate,
        crash_rate=crash_rate,
        seed=seed,
        duration=duration,
        moves=moves,
        finds_issued=len(records),
        finds_completed=len(completed),
        find_retries=retries,
        recovered=reconsistency is not None,
        reconsistency_time=reconsistency,
        work_faulted=work_at_horizon,
        work_golden=work_golden,
        fault_events=scenario.injector.stats.as_dict() if scenario.injector else {},
    )
