"""Passive trace tracker (buffered-detections baseline).

The opposite trade to VINESTALK: spend *nothing* on maintenance and pay
everything at find time.  Regions that detect the tracked object merely
buffer the detection locally (a sense, not a transmission); no tracking
path, directory, or home publication is ever maintained.  A find floods
an expanding ring until it hits any region holding a buffered detection,
then chases the trace forward hop-by-hop — each buffered point leads to
the next, newest-first — until it reaches the object's current region.

Cost shape (exact operational model over the region graph, like the
other analytic baselines):

* move work  = 0       — zero maintenance traffic, by construction;
* find work  = Θ(d_t²) flood to the nearest trail point (``d_t`` ≤
  distance to the object only if the trail passes nearby) plus the
  trail-chase walk, so finds are both slower and costlier than
  VINESTALK's O(d);
* energy     = senses only between finds — the lowest idle-phase drain
  of any baseline, bought with the worst find latency.

This is the Marculescu-style "trace in the network" design point the
cross-baseline table positions against predictive pre-configuration
(maximum speculation) and VINESTALK (bounded locality).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ...geometry.regions import RegionId
from ...geometry.tiling import Tiling
from ..analytic import FREE, AnalyticTracker, Cost
from ..flooding import flood


class PassiveTraceTracker(AnalyticTracker):
    """Zero-maintenance tracking via buffered detection traces.

    Args:
        tiling: The region graph.
        delta: Broadcast delay unit.
        trail_cap: Detection buffer size; older trail points age out,
            so long-idle finds must flood further before picking up
            the trace.
    """

    def __init__(
        self, tiling: Tiling, delta: float = 1.0, trail_cap: int = 64
    ) -> None:
        super().__init__(tiling, delta)
        self.trail_cap = trail_cap
        #: Buffered detections, oldest first; the last entry is the
        #: object's current region.
        self.trail: List[RegionId] = []

    def _move(self, region: RegionId) -> Cost:
        """The region buffers the detection, free."""
        self.trail.append(region)
        if len(self.trail) > self.trail_cap:
            del self.trail[0]
        return FREE

    #: Entering buffers the first detection.
    _enter = _move

    def _nearest_trail_point(
        self, origin: RegionId
    ) -> Tuple[int, RegionId, int]:
        """(trail index, region, distance) of the closest buffered point.

        Ties break toward the *newest* detection so the chase walk is
        as short as possible.
        """
        best: Optional[Tuple[int, RegionId, int]] = None
        for index, region in enumerate(self.trail):
            distance = self.tiling.distance(origin, region)
            if best is None or distance <= best[2]:
                best = (index, region, distance)
        assert best is not None
        return best

    def _find(self, origin: RegionId) -> Cost:
        """Flood to the nearest trail point, then chase the trace forward."""
        index, entry_region, _distance = self._nearest_trail_point(origin)
        ring = flood(self.tiling, origin, entry_region, self.delta)
        work = ring.work
        time = ring.time
        # Chase the trace forward: one hop-walk per remaining trail
        # segment, ending at the newest detection (the current region).
        previous = entry_region
        for region in self.trail[index + 1 :]:
            hop = self.tiling.distance(previous, region)
            work += float(hop)
            time += hop * self.delta
            previous = region
        return Cost(work=work, time=time)
