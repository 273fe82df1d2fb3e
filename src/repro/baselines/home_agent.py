"""Home-agent location service (GLS-flavoured rendezvous baseline).

The tracked object's location is published at a fixed *home region*
determined by its identity (as in GLS's id-to-location hash [14] or a
Mobile-IP home agent).  Every move updates the home; every find queries
the home and then visits the object:

* move work  = distance(current, home)       — Θ(D) regardless of step size,
* find work  = distance(origin, home) + distance(home, object) — non-local
  even when the object is adjacent to the finder.

This is the classic non-locality strawman the locality-aware services
(LLS, VINESTALK) are designed to beat.  Exact operational cost model
over the region graph.
"""

from __future__ import annotations

from typing import Optional

from ..geometry.regions import RegionId
from ..geometry.tiling import Tiling
from .analytic import AnalyticTracker, Cost


class HomeAgentLocator(AnalyticTracker):
    """Rendezvous-based location service with a fixed home region."""

    def __init__(
        self,
        tiling: Tiling,
        home: Optional[RegionId] = None,
        delta: float = 1.0,
    ) -> None:
        super().__init__(tiling, delta)
        regions = tiling.regions()
        # Default home: the lexicographically middle region (a fixed,
        # identity-derived rendezvous point).
        self.home = home if home is not None else regions[len(regions) // 2]

    def _move(self, region: RegionId) -> Cost:
        """Publish ``region`` at the home."""
        distance = self.tiling.distance(region, self.home)
        return Cost(work=float(distance), time=distance * self.delta)

    #: Entering pays the first publication, like a move.
    _enter = _move

    def _find(self, origin: RegionId) -> Cost:
        """Query the home, then visit the object's region."""
        to_home = self.tiling.distance(origin, self.home)
        to_object = self.tiling.distance(self.home, self.location)
        work = float(to_home + to_object)
        return Cost(work=work, time=work * self.delta)

    def handover(self, cost: Cost) -> bool:
        """Every move rewrites the rendezvous record."""
        return True
