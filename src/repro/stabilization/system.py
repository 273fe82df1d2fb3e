"""Self-stabilizing VINESTALK system assembly (§VII extension).

:class:`StabilizingVineStalk` wires :class:`StabilizingTracker`
processes with a client-side periodic grow re-anchor, plus fault
injection and convergence measurement used by the stabilization tests
and benchmark.
"""

from __future__ import annotations

import random
from functools import partial
from typing import List, Optional

from ..core.consistency import check_consistent
from ..core.state import capture_snapshot
from ..core.vinestalk import VineStalk
from ..hierarchy.cluster import ClusterId
from ..hierarchy.hierarchy import ClusterHierarchy
from .stabilizing_tracker import StabilizationConfig, StabilizingTracker


class StabilizingVineStalk(VineStalk):
    """VINESTALK whose trackers self-stabilize through heartbeats."""

    #: Heartbeat timers re-arm forever: the queue never drains.
    quiesces = False

    def __init__(
        self,
        hierarchy: ClusterHierarchy,
        delta: float = 1.0,
        e: float = 0.5,
        schedule=None,
        sim=None,
        stabilization: Optional[StabilizationConfig] = None,
    ) -> None:
        config = stabilization if stabilization is not None else StabilizationConfig()
        self.stabilization = config
        self.tracker_cls = partial(StabilizingTracker, stabilization=config)
        super().__init__(hierarchy, delta=delta, e=e, schedule=schedule, sim=sim)
        for tracker in self.trackers.values():
            tracker.start_heartbeats()
        self._refresh_running = False

    # ------------------------------------------------------------------
    # Client-side re-anchor (STALK's level-0 refresh)
    # ------------------------------------------------------------------
    def start_anchor_refresh(self) -> None:
        """Periodically re-send the grow from the evader's client."""
        if self._refresh_running:
            return
        self._refresh_running = True
        self._schedule_refresh()

    def _refresh_interval(self) -> float:
        return self.stabilization.period(0) * self.stabilization.refresh_periods

    def _schedule_refresh(self) -> None:
        self.sim.call_after(self._refresh_interval(), self._refresh_tick,
                            tag="anchor-refresh")

    def _refresh_tick(self) -> None:
        if self.evader is not None and self.evader.region is not None:
            client = self.clients.get(self.evader.region)
            if client is not None and not client.failed and client.evader_here:
                from ..core.messages import Grow

                client.ctob_send(Grow(cid=client.local_cluster()))
        self._schedule_refresh()

    # ------------------------------------------------------------------
    # Fault injection and convergence measurement
    # ------------------------------------------------------------------
    def corrupt(self, rng: random.Random, count: int) -> List[ClusterId]:
        """Corrupt ``count`` random tracker pointer variables in place.

        Returns the clusters touched.  Values are drawn from the legal
        type domain (plus a few illegal ones) so both the lease and the
        type-repair machinery get exercised.
        """
        touched: List[ClusterId] = []
        clusters = sorted(self.trackers)
        for _ in range(count):
            clust = rng.choice(clusters)
            tracker = self.trackers[clust]
            field = rng.choice(["c", "p", "nbrptup", "nbrptdown"])
            h = self.hierarchy
            domain: List = [None, clust]
            domain.extend(h.nbrs(clust))
            domain.extend(h.children(clust))
            parent = h.parent(clust)
            if parent is not None:
                domain.append(parent)
            setattr(tracker, field, rng.choice(domain))
            touched.append(clust)
        return touched

    def is_converged(self) -> bool:
        """Consistent tracking structure for the current evader position."""
        if self.evader is None or self.evader.region is None:
            return False
        snapshot = capture_snapshot(self)
        return not check_consistent(snapshot, self.hierarchy, self.evader.region)

    def time_to_converge(self, max_time: float, probe: float = 10.0) -> Optional[float]:
        """Run until converged; returns elapsed time or None on timeout."""
        start = self.sim.now
        while self.sim.now - start < max_time:
            if self.is_converged():
                return self.sim.now - start
            self.sim.run_until(self.sim.now + probe)
        return self.time_to_converge_final_check(start)

    def time_to_converge_final_check(self, start: float) -> Optional[float]:
        if self.is_converged():
            return self.sim.now - start
        return None
