"""Multiple heads per cluster (§VII extension).

"We can also try to improve fault-tolerance of VINESTALK by allowing
multiple heads per cluster.  Updates to the tracking path and queries of
clusterheads would involve contacting multiple heads for each cluster.
This quorum-like approach should result in only an additional constant
factor overhead, but would allow for the failure of limited sets of
VSAs."

We implement the primary-backup reading of that sketch:

* each cluster's Tracker state is hosted at ``m`` *head slots* — the
  ``m`` member regions closest to the cluster centroid;
* every state update is synchronised to the backup slots (charged as
  ``m−1`` extra messages whose cost is the slot spread — the promised
  constant-factor overhead);
* the cluster process stays alive while *any* slot's VSA is alive: the
  surviving slot carries the replicated state (promotion is free in the
  model because backups hold the synced state);
* only when **all** ``m`` slots are down does the process fail, losing
  its state like an ordinary VSA failure.

:class:`ReplicatedVineStalk` exposes region-level fault injection and
per-cluster slot introspection; the tests and the replication bench
exercise the paper's claim (tolerate limited VSA failures at constant
overhead).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..core.messages import TrackerMessage, is_move_message
from ..core.vinestalk import VineStalk
from ..geometry.regions import RegionId
from ..hierarchy.cluster import ClusterId
from ..hierarchy.hierarchy import ClusterHierarchy


class ReplicaSlots:
    """The head slots of one cluster and their aliveness."""

    def __init__(self, clust: ClusterId, regions: List[RegionId]) -> None:
        self.clust = clust
        self.regions = list(regions)
        self.alive = [True] * len(regions)
        self.promotions = 0

    @property
    def replication_factor(self) -> int:
        return len(self.regions)

    def alive_count(self) -> int:
        return sum(self.alive)

    def primary(self) -> Optional[RegionId]:
        for region, up in zip(self.regions, self.alive):
            if up:
                return region
        return None

    def spread(self, hierarchy: ClusterHierarchy) -> int:
        """Max distance between slots (the sync-message cost unit)."""
        best = 1
        for i, a in enumerate(self.regions):
            for b in self.regions[i + 1:]:
                best = max(best, hierarchy.tiling.distance(a, b))
        return best


def choose_slots(
    hierarchy: ClusterHierarchy, clust: ClusterId, m: int
) -> List[RegionId]:
    """The ``m`` member regions closest to the cluster centroid."""
    members = hierarchy.members(clust)
    centers = [hierarchy.tiling.region(u).center for u in members]
    cx = sum(p.x for p in centers) / len(centers)
    cy = sum(p.y for p in centers) / len(centers)

    def score(u: RegionId):
        point = hierarchy.tiling.region(u).center
        return ((point.x - cx) ** 2 + (point.y - cy) ** 2, u)

    return sorted(members, key=score)[: max(1, min(m, len(members)))]


class ReplicatedVineStalk(VineStalk):
    """VINESTALK with ``m`` replicated head slots per cluster."""

    def __init__(
        self,
        hierarchy: ClusterHierarchy,
        replication_factor: int = 2,
        delta: float = 1.0,
        e: float = 0.5,
        schedule=None,
        sim=None,
    ) -> None:
        if replication_factor < 1:
            raise ValueError("replication_factor must be >= 1")
        super().__init__(hierarchy, delta=delta, e=e, schedule=schedule, sim=sim)
        self.replication_factor = replication_factor
        self.slots: Dict[ClusterId, ReplicaSlots] = {
            clust: ReplicaSlots(clust, choose_slots(hierarchy, clust, replication_factor))
            for clust in hierarchy.all_clusters()
        }
        # Which clusters have a slot at each region.
        self._slots_at: Dict[RegionId, List[tuple]] = {}
        for clust, slots in self.slots.items():
            for index, region in enumerate(slots.regions):
                self._slots_at.setdefault(region, []).append((clust, index))
        # Replication overhead: m−1 sync messages per state-changing send.
        self.sync_messages = 0
        self.sync_work = 0.0
        self.cgcast.observe(self._charge_sync)

    def _charge_sync(self, records) -> None:
        """C-gcast observer: m−1 sync messages per state-changing send."""
        for _time, _src, dest, payload, _cost, _delay in records:
            if not isinstance(payload, TrackerMessage) or not is_move_message(payload):
                continue
            if not isinstance(dest, ClusterId):
                continue
            slots = self.slots[dest]
            extra = slots.replication_factor - 1
            if extra > 0:
                self.sync_messages += extra
                self.sync_work += extra * slots.spread(self.hierarchy)

    # ------------------------------------------------------------------
    # Fault injection at region granularity
    # ------------------------------------------------------------------
    def fail_region(self, region: RegionId) -> List[ClusterId]:
        """The VSA at ``region`` fails; clusters lose the slot it hosts.

        A cluster's process fails only once *all* its slots are down.
        Returns the clusters whose process actually failed.
        """
        lost: List[ClusterId] = []
        for clust, index in self._slots_at.get(region, []):
            slots = self.slots[clust]
            was_primary = slots.primary() == region
            slots.alive[index] = False
            if slots.alive_count() == 0:
                self.trackers[clust].fail()
                lost.append(clust)
            elif was_primary:
                slots.promotions += 1  # a backup takes over with synced state
        return lost

    def restart_region(self, region: RegionId) -> List[ClusterId]:
        """The VSA at ``region`` restarts; fully dead processes restart fresh."""
        revived: List[ClusterId] = []
        for clust, index in self._slots_at.get(region, []):
            slots = self.slots[clust]
            all_dead = slots.alive_count() == 0
            slots.alive[index] = True
            if all_dead:
                self.trackers[clust].restart()  # state was lost
                revived.append(clust)
            else:
                # Re-sync from the surviving primary: one state transfer.
                self.sync_messages += 1
                self.sync_work += slots.spread(self.hierarchy)
        return revived

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def cluster_alive(self, clust: ClusterId) -> bool:
        return not self.trackers[clust].failed

    def total_promotions(self) -> int:
        return sum(s.promotions for s in self.slots.values())
