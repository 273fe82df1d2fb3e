"""Expanding-ring flooding finder (naive baseline).

The classical infrastructure-free way to locate an object: flood a query
over the region graph with doubling radii (1, 2, 4, …) until a region
hosting the object answers.  Work is the number of broadcasts —
Θ(d²) on a grid for an object distance ``d`` away, versus VINESTALK's
O(d) — and time is the accumulated roundtrip of each ring.

This is an exact operational cost model over the region graph (every
region in a flooded ball broadcasts once per attempt); it does not run
message-level simulation because the flood has no protocol state worth
modelling.  Moves maintain nothing and cost nothing.
"""

from __future__ import annotations

from ..geometry.regions import RegionId
from ..geometry.tiling import Tiling
from .analytic import AnalyticTracker, Cost


def flood(
    tiling: Tiling, origin: RegionId, target: RegionId, delta: float = 1.0
) -> Cost:
    """One expanding-ring search from ``origin`` for ``target``.

    Each attempt floods the ball of the current radius (one broadcast
    per covered region) and waits a ring roundtrip; radii double until
    the target is covered.
    """
    distance = tiling.distance(origin, target)
    work = 0.0
    time = 0.0
    radius = 1
    diameter = tiling.diameter()
    while True:
        work += tiling.ball_size(origin, radius)
        time += 2 * radius * delta
        if radius >= distance:
            return Cost(work=work, time=time)
        if radius > 2 * max(1, diameter):  # pragma: no cover - safety
            raise RuntimeError("flood search failed to terminate")
        radius *= 2


class FloodingFinder(AnalyticTracker):
    """Expanding-ring search for the object's current region."""

    def _find(self, origin: RegionId) -> Cost:
        return flood(self.tiling, origin, self.location, self.delta)
