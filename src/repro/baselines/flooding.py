"""Expanding-ring flooding finder (naive baseline).

The classical infrastructure-free way to locate an object: flood a query
over the region graph with doubling radii (1, 2, 4, …) until a region
hosting the object answers.  Work is the number of broadcasts —
Θ(d²) on a grid for an object distance ``d`` away, versus VINESTALK's
O(d) — and time is the accumulated roundtrip of each ring.

This is an exact operational cost model over the region graph (every
region in a flooded ball broadcasts once per attempt); it does not run
message-level simulation because the flood has no protocol state worth
modelling.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..geometry.regions import RegionId
from ..geometry.tiling import Tiling


@dataclass(frozen=True)
class FloodResult:
    """Outcome of one expanding-ring search."""

    work: float
    time: float
    rings: int
    final_radius: int


class FloodingFinder:
    """Expanding-ring search over a tiling."""

    def __init__(self, tiling: Tiling, delta: float = 1.0) -> None:
        self.tiling = tiling
        self.delta = delta

    def ball_size(self, center: RegionId, radius: int) -> int:
        """Number of regions within ``radius`` of ``center``: one broadcast each."""
        return self.tiling.ball_size(center, radius)

    def find(self, origin: RegionId, target: RegionId) -> FloodResult:
        """Search for an object at ``target`` from ``origin``.

        Each attempt floods the ball of the current radius (one broadcast
        per covered region) and waits a ring roundtrip; radii double until
        the target is covered.
        """
        distance = self.tiling.distance(origin, target)
        work = 0.0
        time = 0.0
        radius = 1
        rings = 0
        diameter = self.tiling.diameter()
        while True:
            rings += 1
            work += self.ball_size(origin, radius)
            time += 2 * radius * self.delta
            if radius >= distance:
                return FloodResult(work=work, time=time, rings=rings, final_radius=radius)
            if radius > 2 * max(1, diameter):  # pragma: no cover - safety
                raise RuntimeError("flood search failed to terminate")
            radius *= 2
