"""The scripted walk: one evader's random neighbor walk with finds.

The sharded-engine goldens, ``repro gen walk`` and the run-file corpus
all drive this walk; the script vocabulary it is written in lives in
:mod:`repro.workload`.
"""

from __future__ import annotations

import random

from ...faults.plan import default_plan
from ...workload import (
    STAGGER,
    EvaderEnter,
    EvaderStep,
    IssueFind,
    ScriptedWorkload,
    schedule_workload,
)

# ``schedule_workload`` is re-exported: benchmarks/perf/trace.py binds it
# by this module path.
__all__ = ["make_walk_workload", "schedule_workload", "walk_scenario"]

#: Sim time between the walk's steps.
DWELL = 40.0


def make_walk_workload(
    tiling, n_moves: int, n_finds: int, seed: int
) -> ScriptedWorkload:
    """A random neighbor walk with interleaved find queries.

    The evader enters at the center region at ``t=0`` and steps to a
    uniformly drawn neighbor every :data:`DWELL` time units.  ``n_finds``
    finds are issued from uniformly drawn origins at mid-dwell offsets,
    cycling over the walk — a large ``n_finds`` therefore yields
    *concurrent* find storms, the regime where sharded execution has
    work to parallelize.

    Fully determined by ``(tiling, n_moves, n_finds, seed)``.
    """
    rng = random.Random(seed)
    regions = list(tiling.regions())
    current = regions[len(regions) // 2]
    actions: list = [EvaderEnter(0.0, current)]
    for i in range(1, n_moves + 1):
        current = rng.choice(list(tiling.neighbors(current)))
        actions.append(EvaderStep(float(i) * DWELL, current))
    slots = max(1, n_moves)
    for j in range(n_finds):
        # The j * STAGGER offset keeps two find chains (whose hop delays
        # are multiples of 0.5) from ever colliding at the same cluster
        # at the same instant, for any pair with |j1 - j2| < 512, while
        # still keeping many finds in flight concurrently.
        at = (float(j % slots) + 0.5) * DWELL + j * STAGGER
        origin = rng.choice(regions)
        actions.append(IssueFind(at, origin, j + 1))
    return ScriptedWorkload.of(actions)


def walk_scenario(
    r: int = 2,
    max_level: int = 3,
    shards: int = 2,
    n_moves: int = 8,
    n_finds: int = 4,
    seed: int = 11,
    loss_rate: float = 0.0,
    jitter_rate: float = 0.0,
):
    """The scripted walk as ``(config at K shards, its frozen script)``.

    ``repro gen walk`` writes it to a run file; tests run it with
    ``run_script(*walk_scenario(...), backend)``.
    """
    from ...scenario import ScenarioConfig
    from .core import _tiling_for

    plan = default_plan(loss_rate=loss_rate, jitter_rate=jitter_rate, jitter_max=0.5)
    config = ScenarioConfig(
        r=r,
        max_level=max_level,
        seed=seed,
        shards=shards,
        # No injector for a null plan: the record's fault_events stay None.
        fault_plan=None if plan.is_null() else plan,
    )
    return config, make_walk_workload(_tiling_for(config), n_moves, n_finds, seed)
