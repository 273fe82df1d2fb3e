"""Open-loop load generation for the tracking service.

A :class:`LoadGenerator` is a :class:`~repro.workload.Workload`: its
:meth:`~LoadGenerator.events` emits one frozen action stream — M objects
entering and roaming, plus find queries arriving open-loop (the arrival
process does not wait for completions) from a pool of client origin
regions.  Everything is a pure function of ``seed``, so the same
generator value drives bit-identical runs on the plain and any-K
sharded engines.

Arrival processes (``arrival=``):

* ``"poisson"`` — exponential inter-arrivals at ``rate`` finds per sim
  time unit (memoryless steady load);
* ``"burst"``  — :data:`BURST_SIZE`-find volleys every
  :data:`BURST_GAP` time units (find storms: the concurrent-find stress
  regime);
* ``"uniform"`` — evenly spaced arrivals across the walk horizon (the
  closed-form baseline).

Every action receives a globally unique timestamp
(:func:`~repro.workload.unique_time`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Set

from ..workload import (
    STAGGER,
    EvaderEnter,
    EvaderStep,
    IssueFind,
    WorkloadAction,
    unique_time,
)

#: Supported arrival process names.
ARRIVALS = ("poisson", "burst", "uniform")
#: Finds per volley of the ``"burst"`` process.
BURST_SIZE = 8
#: Sim time between the ``"burst"`` process's volleys.
BURST_GAP = 60.0
#: Find arrivals start here, after the enter wave settles.
WARMUP = 10.0


@dataclass(frozen=True)
class LoadGenerator:
    """Seeded open-loop service workload over M objects and K clients.

    Args:
        tiling: The region tiling finds and walks draw regions from.
        n_objects: M — independent tracked objects (lanes).
        n_finds: Total find queries across the run.
        find_clients: Size of the client-origin pool finds draw from.
        arrival: One of :data:`ARRIVALS`.
        rate: Poisson arrivals per sim time unit.
        moves_per_object: Walk steps each object takes.
        dwell: Sim time between an object's steps.
        deadline: Latency budget stamped on every find (``None`` = no
            deadline accounting).
    """

    tiling: object
    n_objects: int = 1
    n_finds: int = 100
    find_clients: int = 4
    arrival: str = "poisson"
    rate: float = 1.0
    moves_per_object: int = 4
    dwell: float = 40.0
    deadline: Optional[float] = None

    def __post_init__(self) -> None:
        if self.arrival not in ARRIVALS:
            raise ValueError(
                f"arrival must be one of {ARRIVALS}, got {self.arrival!r}"
            )
        if self.n_objects < 1:
            raise ValueError("n_objects must be >= 1")
        if self.find_clients < 1:
            raise ValueError("find_clients must be >= 1")
        if self.n_finds < 0 or self.moves_per_object < 0:
            raise ValueError("n_finds and moves_per_object must be >= 0")
        if not (self.rate > 0 and self.dwell > 0):
            # expovariate(0) divides by zero; a negative rate schedules
            # finds before the warm-up, at negative sim times.
            raise ValueError("rate and dwell must be > 0")

    @property
    def horizon(self) -> float:
        """Last scheduled walk step (find arrivals may run past it)."""
        return WARMUP + self.moves_per_object * self.dwell

    def events(self, seed: int = 0) -> List[WorkloadAction]:
        """The full action stream for ``seed`` (unique times, unsorted)."""
        rng = random.Random(seed)
        regions = list(self.tiling.regions())
        used: Set[float] = set()
        actions: List[WorkloadAction] = []

        # Enter wave: object k enters at k * STAGGER — staggered so no
        # two enter cascades are causally-independent same-instant events.
        starts = [rng.choice(regions) for _ in range(self.n_objects)]
        for k, start in enumerate(starts):
            actions.append(EvaderEnter(unique_time(k * STAGGER, used), start, k))

        # Walks: object k steps at WARMUP + i*dwell + k * STAGGER.
        currents = list(starts)
        for i in range(1, self.moves_per_object + 1):
            for k in range(self.n_objects):
                currents[k] = rng.choice(
                    list(self.tiling.neighbors(currents[k]))
                )
                at = WARMUP + float(i) * self.dwell + k * STAGGER
                actions.append(EvaderStep(unique_time(at, used), currents[k], k))

        # Client origin pool (K distinct regions when possible).
        pool = rng.sample(regions, min(self.find_clients, len(regions)))

        # Open-loop find arrivals: ids pre-assigned in arrival order,
        # globally unique — the sharded coordinators then allocate the
        # same ids the serial run would.
        for j, at in enumerate(self._arrival_times(rng)):
            actions.append(
                IssueFind(
                    unique_time(at, used),
                    rng.choice(pool),
                    j + 1,
                    rng.randrange(self.n_objects),
                    self.deadline,
                )
            )
        return actions

    def _arrival_times(self, rng: random.Random) -> List[float]:
        if self.arrival == "poisson":
            times, t = [], WARMUP
            for _ in range(self.n_finds):
                t += rng.expovariate(self.rate)
                times.append(t)
            return times
        if self.arrival == "burst":
            return [
                WARMUP + (j // BURST_SIZE) * BURST_GAP
                + float(j % BURST_SIZE) / 256.0
                for j in range(self.n_finds)
            ]
        span = max(self.horizon - WARMUP, 1.0)
        return [
            WARMUP + (j + 0.5) * span / self.n_finds
            for j in range(self.n_finds)
        ]
