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
  its state like an ordinary VSA failure; it restarts fresh when one of
  its slots' VSAs returns.

:class:`ReplicatedVineStalk` follows the lifecycle of each slot region's
:class:`~repro.vsa.vsa.VsaHost`, so a host's ``fail``/``restart`` — from
a fault plan or called directly — is the one way to fail a slot.  With
``m = 1`` the one slot is the head, and the system behaves as plain
VINESTALK.
"""

from __future__ import annotations

from typing import Dict, List

from ..core.messages import TrackerMessage, is_move_message
from ..core.vinestalk import VineStalk
from ..geometry.points import centroid
from ..geometry.regions import RegionId
from ..hierarchy.cluster import ClusterId
from ..hierarchy.hierarchy import ClusterHierarchy


class ReplicaSlots:
    """The head slots of one cluster and their aliveness."""

    def __init__(self, clust: ClusterId, regions: List[RegionId]) -> None:
        self.clust = clust
        self.regions = list(regions)
        self.alive = [True] * len(regions)

    @property
    def replication_factor(self) -> int:
        return len(self.regions)

    def alive_count(self) -> int:
        return sum(self.alive)

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
    mid = centroid([hierarchy.tiling.region(u).center for u in members])

    def score(u: RegionId):
        point = hierarchy.tiling.region(u).center
        return ((point.x - mid.x) ** 2 + (point.y - mid.y) ** 2, u)

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
        # Which clusters have a slot at each region, in the order a
        # VsaHost fails and restarts the subautomata it hosts.
        self._slots_at: Dict[RegionId, List[tuple]] = {}
        for clust, slots in self.slots.items():
            for index, region in enumerate(slots.regions):
                self._slots_at.setdefault(region, []).append((clust, index))
        for region, entries in self._slots_at.items():
            entries.sort(key=lambda entry: f"tracker:l{entry[0].level}")
            self.network.hosts[region].observe(self._slot_host_event)
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
    # Slot lifecycle
    # ------------------------------------------------------------------
    def _host_tracker(self, head: RegionId, clust: ClusterId, tracker) -> None:
        """A Tracker lives at its slots, not at its head's VSA alone: it
        starts failed iff every slot's VSA is down."""
        self.network.executor.register(tracker)
        if not self.slots[clust].alive_count():
            tracker.fail()

    def _slot_host_event(self, host, event: str) -> None:
        """A slot region's VSA failed or restarted.

        A cluster's Tracker fails with the VSA of its last live slot and
        restarts fresh (its state was lost) when one of them returns; a
        slot returning beside a live one re-syncs from it (one state
        transfer).
        """
        up = event == "restart"
        built = self.trackers.built
        for clust, index in self._slots_at[host.region]:
            slots = self.slots[clust]
            was_alive = slots.alive_count() > 0
            slots.alive[index] = up
            tracker = built.get(clust)
            if not up:
                if tracker is not None and not slots.alive_count():
                    tracker.fail()
            elif was_alive:
                self.sync_messages += 1
                self.sync_work += slots.spread(self.hierarchy)
            elif tracker is not None:
                tracker.restart()
