"""The canonical replayable workload behind ``repro snapshot/resume/bisect``.

One seeded, fully scheduled tracked walk: moves on a fixed timer, one
find late in the run, all of it on the event queue so the *entire*
remaining workload is part of any snapshot taken mid-run.  The golden
suites and the CLI replay tooling all drive this shape, so a ``repro
snapshot`` taken at any cut point resumes through ``repro resume`` with
no out-of-band driver state.
"""

from __future__ import annotations

import random
from functools import partial
from typing import Optional

from ..mobility.models import RandomNeighborWalk
from ..scenario import Scenario, ScenarioConfig, build

#: Default spacing of the scheduled moves (sim time).
MOVE_EVERY = 10.0

#: Default sim time at which the one find is issued.
FIND_AT = 55.0


def schedule_tracked_walk(
    scenario: Scenario,
    moves: int = 5,
    move_every: float = MOVE_EVERY,
    find_at: Optional[float] = FIND_AT,
):
    """Attach an evader and schedule the canonical workload onto it.

    Moves fire at ``move_every * k`` (k = 1..moves); when ``find_at`` is
    given, a find from the corner region is scheduled there.  The walk
    RNG is seeded from ``scenario.config.seed``.  Returns the evader.

    The moves are one chain — each schedules the next — so a snapshot
    holds the rest of the walk as one event, whatever its length, and a
    ``repro snapshot`` payload stays flat.  Priority -1 makes each move the
    first event of its instant.  Queued all at once after ``build()``, a
    move would instead follow the events ``build()`` itself queued for
    its instant — a fault plan's first blackout or crash tick — so the
    chain reorders a move against those.  The two schedules run the same
    run where the move and the fault commute, as they do when the fault
    takes down the move's destination region.  They do not commute when
    the fault lifts at the very instant one of the move's messages lands:
    the restore and the delivery then swap too.
    ``tests/ckpt/test_golden_resume.py`` pins both cases.
    """
    system = scenario.system
    regions = system.hierarchy.tiling.regions()
    center = regions[len(regions) // 2]
    evader = system.make_evader(
        RandomNeighborWalk(start=center),
        dwell=1e12,
        start=center,
        rng=random.Random(scenario.config.seed),
    )

    def move(k: int) -> None:
        evader.step()
        if k < moves:
            schedule(k + 1)

    def schedule(k: int) -> None:
        system.sim.call_at(
            move_every * k, partial(move, k), priority=-1, tag="walk-move"
        )

    if moves > 0:
        schedule(1)
    if find_at is not None:
        system.sim.call_at(
            find_at, lambda: system.issue_find(regions[0]), tag="walk-find"
        )
    return evader


def walk_horizon(moves: int, move_every: float = MOVE_EVERY) -> float:
    """Sim time by which the whole scheduled walk has settled."""
    return move_every * (moves + 2)


def build_tracked_walk(config: ScenarioConfig, moves: int = 5) -> Scenario:
    """Build ``config`` with the walk scheduled."""
    scenario = build(config)
    schedule_tracked_walk(scenario, moves=moves)
    return scenario
