"""Open-loop load generation for the tracking service.

A :class:`LoadGenerator` is a :class:`~repro.workload.Workload`: its
:meth:`~LoadGenerator.events` emits one frozen, time-sorted action
stream — M objects entering and roaming, plus find queries arriving
open-loop (the arrival process does not wait for completions) from a
pool of client origin regions.  Everything is a pure function of
``seed``, so the same generator value drives bit-identical runs on the
plain and any-K sharded engines.

Arrival processes (``arrival=``):

* ``"poisson"`` — exponential inter-arrivals at ``rate`` finds per sim
  time unit (memoryless steady load);
* ``"burst"``  — ``burst_size``-find volleys every ``burst_gap`` time
  units (find storms: the concurrent-find stress regime);
* ``"uniform"`` — evenly spaced arrivals across the walk horizon (the
  closed-form baseline).

Every action receives a globally unique timestamp (collision nudge of
1/4096): same-instant causally-independent events are ordered by
global scheduling order in the serial engine, an order a partitioned
run cannot reproduce, so the generator never manufactures them (see
``make_walk_workload``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Set

from ..sim.sharded.workload import (
    EvaderEnter,
    EvaderStep,
    IssueFind,
    WorkloadAction,
)

#: Supported arrival process names.
ARRIVALS = ("poisson", "burst", "uniform")


def _unique(t: float, used: Set[float]) -> float:
    """Nudge ``t`` by 1/4096 until it is unused; record and return it."""
    while t in used:
        t += 1.0 / 4096.0
    used.add(t)
    return t


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
        burst_size / burst_gap: Burst process shape.
        moves_per_object: Walk steps each object takes.
        dwell: Sim time between an object's steps.
        deadline: Latency budget stamped on every find (``None`` = no
            deadline accounting).
        warmup: Find arrivals start here, after the enter wave settles.
    """

    tiling: object
    n_objects: int = 1
    n_finds: int = 100
    find_clients: int = 4
    arrival: str = "poisson"
    rate: float = 1.0
    burst_size: int = 8
    burst_gap: float = 60.0
    moves_per_object: int = 4
    dwell: float = 40.0
    deadline: Optional[float] = None
    warmup: float = 10.0

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
        if self.burst_size < 1:
            raise ValueError("burst_size must be >= 1")
        if not (self.rate > 0 and self.dwell > 0):
            # expovariate(0) divides by zero; a negative rate schedules
            # finds before the warm-up, at negative sim times.
            raise ValueError("rate and dwell must be > 0")

    @property
    def horizon(self) -> float:
        """Last scheduled walk step (find arrivals may run past it)."""
        return self.warmup + self.moves_per_object * self.dwell

    def events(self, seed: int = 0) -> List[WorkloadAction]:
        """The full action stream for ``seed`` (time-sorted, unique times)."""
        rng = random.Random(seed)
        regions = list(self.tiling.regions())
        used: Set[float] = set()
        actions: List[WorkloadAction] = []

        # Enter wave: object k enters at k/1024 — staggered so no two
        # enter cascades are causally-independent same-instant events.
        starts = [rng.choice(regions) for _ in range(self.n_objects)]
        for k, start in enumerate(starts):
            actions.append(
                EvaderEnter(_unique(float(k) / 1024.0, used), start, k)
            )

        # Walks: object k steps at warmup + i*dwell + k/1024.
        currents = list(starts)
        for i in range(1, self.moves_per_object + 1):
            for k in range(self.n_objects):
                currents[k] = rng.choice(
                    list(self.tiling.neighbors(currents[k]))
                )
                at = self.warmup + float(i) * self.dwell + float(k) / 1024.0
                actions.append(EvaderStep(_unique(at, used), currents[k], k))

        # Client origin pool (K distinct regions when possible).
        pool = rng.sample(regions, min(self.find_clients, len(regions)))

        # Open-loop find arrivals: ids pre-assigned in arrival order,
        # globally unique — the sharded coordinators then allocate the
        # same ids the serial run would.
        for j, at in enumerate(self._arrival_times(rng)):
            actions.append(
                IssueFind(
                    _unique(at, used),
                    rng.choice(pool),
                    j + 1,
                    rng.randrange(self.n_objects),
                    self.deadline,
                )
            )
        actions.sort(key=lambda a: a.time)  # stable: keeps draw order
        return actions

    def _arrival_times(self, rng: random.Random) -> List[float]:
        if self.arrival == "poisson":
            times, t = [], self.warmup
            for _ in range(self.n_finds):
                t += rng.expovariate(self.rate)
                times.append(t)
            return times
        if self.arrival == "burst":
            return [
                self.warmup + (j // self.burst_size) * self.burst_gap
                + float(j % self.burst_size) / 256.0
                for j in range(self.n_finds)
            ]
        span = max(self.horizon - self.warmup, 1.0)
        return [
            self.warmup + (j + 0.5) * span / self.n_finds
            for j in range(self.n_finds)
        ]
