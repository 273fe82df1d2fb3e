"""VINESTALK system assembly (§III-B).

:class:`VineStalk` wires the full stack for one hierarchy:

* a :class:`~repro.vsa.layer.VsaNetwork` (simulator, executor, VSA hosts,
  C-gcast);
* one :class:`~repro.core.tracker.Tracker` per cluster, hosted as
  subautomaton ``V_{u,l}`` at the VSA of the cluster's head region and
  registered as that cluster's C-gcast process;
* one (static) :class:`~repro.core.client_tracking.TrackingClient` per
  region, receiving the augmented GPS ``move``/``left`` inputs and
  client-bound broadcasts;
* a :class:`~repro.core.finds.FindCoordinator` for find bookkeeping.

Trackers and clients are :class:`Automata`: total mappings whose
automata are built on first read.  Theorems 4.9/5.2 bound a run's work
by the distance it covers, so a run builds only the clusters and
regions it touches; an automaton never read is in its initial Fig. 2
state, which is how the built-only readers (``Automata.built``) see it.

This is the *abstract* regime (every VSA alive) used by the theorem
experiments; the emulated regime lives in
:mod:`repro.core.emulated`.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from ..geocast.cgcast import CGcast
from ..geometry.regions import RegionId
from ..hierarchy.cluster import ClusterId
from ..hierarchy.hierarchy import ClusterHierarchy
from ..mobility.evader import Evader
from ..mobility.models import MobilityModel
from ..sim.engine import Simulator
from ..tioa.actions import Action
from ..vsa.layer import Automata, VsaNetwork, _Built
from .client_tracking import TrackingClient
from .finds import FindCoordinator
from .state import SystemSnapshot, capture_snapshot
from .timers import TimerSchedule, grid_schedule
from .tracker import Tracker


class VineStalk:
    """A complete VINESTALK deployment over one cluster hierarchy.

    Args:
        hierarchy: The (validated) cluster hierarchy.
        delta: Broadcast delay ``δ``.
        e: VSA emulation lag ``e``.
        schedule: Grow/shrink timer schedule; defaults to the grid
            corollary schedule when the hierarchy exposes a base ``r``,
            else a schedule must be provided.
        sim: Optional externally owned simulator.
    """

    #: Tracker class to instantiate per cluster; baselines override this.
    tracker_cls = Tracker
    #: C-gcast implementation; the emulated system may use PhysicalCGcast.
    cgcast_cls = CGcast
    #: Optional :class:`~repro.energy.EnergyLedger` (set by ``build``
    #: when the config carries an energy model).
    energy_ledger = None
    #: Whether the event queue drains once the drive is over.  Runs "to
    #: quiescence" (:func:`repro.sim.sharded.core.run_script`) refuse a
    #: system whose timers re-arm forever.
    quiesces = True

    def __init__(
        self,
        hierarchy: ClusterHierarchy,
        delta: float = 1.0,
        e: float = 0.5,
        schedule: Optional[TimerSchedule] = None,
        sim: Optional[Simulator] = None,
    ) -> None:
        self.hierarchy = hierarchy
        self.delta = delta
        self.e = e
        if schedule is None:
            r = getattr(hierarchy, "r", None)
            if r is None:
                raise ValueError(
                    "hierarchy has no grid base r; pass an explicit schedule"
                )
            schedule = grid_schedule(hierarchy.params, delta, e, r)
        schedule.validate(hierarchy.params, delta, e)
        self.schedule = schedule

        self.network = VsaNetwork(
            hierarchy, delta=delta, e=e, sim=sim, cgcast_cls=self.cgcast_cls
        )
        self.sim = self.network.sim
        self.cgcast = self.network.cgcast

        self.finds = FindCoordinator(self.sim)
        self.cgcast.observe(self.finds.observe_send)

        # One Tracker per cluster and one static client per region, each
        # built on first use.  C-gcast reads its process and client-sink
        # tables through the same built dicts.
        tiling = hierarchy.tiling
        self.trackers: Automata = Automata(
            hierarchy.all_clusters, self._add_tracker, hierarchy.head
        )
        self.clients: Automata = Automata(tiling.regions, self._add_client, tiling.index)
        self.cgcast.processes = self.trackers.built
        self.cgcast.client_sinks = _Built(self._sinks_of)

        self.evader: Optional[Evader] = None
        #: All tracked objects by id; ``objects[0] is evader`` when the
        #: legacy single evader is attached (DESIGN.md §9).
        self.objects: Dict[int, Evader] = {}
        #: Every script ``schedule_workload`` queued here, in order: what
        #: a checkpoint replays (:mod:`repro.ckpt`).
        self.scripts: List[Any] = []
        self.moves_observed = 0
        #: Optional GPS-staleness hook (repro.faults): ``(event, region)
        #: -> extra delay``.  When None or 0.0, augmented-GPS delivery
        #: stays synchronous (the §IV-C atomic-move model).
        self.gps_fault_delay = None
        #: Optional region-ownership predicate (repro.sim.sharded).
        #: When set, augmented-GPS move/left inputs reach only clients
        #: of owned regions — the evader replica moves in every shard,
        #: but each region's client reacts in exactly one shard.
        self.client_filter = None

    # ------------------------------------------------------------------
    # Wiring helpers
    # ------------------------------------------------------------------
    def _add_tracker(self, clust: ClusterId) -> Tracker:
        """Build, host and register ``clust``'s Tracker (under a failed
        VSA it starts failed, as ``VsaHost.add_subautomaton`` does)."""
        hierarchy = self.hierarchy
        head = hierarchy.head(clust)  # KeyError: no such cluster
        clust = hierarchy.cluster(head, clust.level)  # the interned id
        tracker = self.tracker_cls(
            hierarchy, clust, self.cgcast, self.schedule, self.delta, self.e
        )
        self._host_tracker(head, clust, tracker)
        self.cgcast.register_process(clust, tracker)  # into trackers.built
        return tracker

    def _host_tracker(self, head: RegionId, clust: ClusterId, tracker: Tracker) -> None:
        """Register ``tracker`` as subautomaton ``V_{u,l}`` of its head's VSA."""
        self.network.add_subautomaton(head, f"tracker:l{clust.level}", tracker)

    def _add_client(self, region: RegionId) -> TrackingClient:
        """Build and wire ``region``'s static client."""
        client = TrackingClient(self.hierarchy.tiling.index(region), self.hierarchy, self.cgcast)
        # The GPS fix on entering the system (a GPSupdate's effect).
        client.region = client.home_region = region
        self.network.add_client(client)
        self.clients.built[region] = client
        self.cgcast.register_client_sink(region, self._client_sink(client))
        client.on_found(self.finds.client_found)
        return client

    def _sinks_of(self, region: RegionId) -> list:
        """The sinks of ``region``'s clients, building its client."""
        self.clients[region]
        return dict.__getitem__(self.cgcast.client_sinks, region)

    def _client_sink(self, client: TrackingClient):
        # A client has no locally controlled action: its inputs need no drain.
        def sink(message) -> None:
            if not client.failed:
                client.input_cTOBrcv(message)

        return sink

    # ------------------------------------------------------------------
    # Evader management
    # ------------------------------------------------------------------
    def make_evader(
        self,
        model: MobilityModel,
        dwell: float,
        rng=None,
        start: Optional[RegionId] = None,
        object_id: int = 0,
    ) -> Evader:
        """Create, attach and place an evader (emits the first ``move``)."""
        name = "evader" if object_id == 0 else f"evader:{object_id}"
        evader = Evader(self.sim, self.hierarchy.tiling, model, dwell, rng=rng,
                        name=name, object_id=object_id)
        self.attach_object(object_id, evader)
        evader.enter(start)
        return evader

    def attach_object(self, object_id: int, evader: Evader) -> None:
        """Attach one tracked object to lane ``object_id``."""
        if object_id in self.objects:
            raise RuntimeError(f"an evader is already attached for object {object_id}")
        self.objects[object_id] = evader
        if object_id == 0:
            self.evader = evader
            # Bound-method observer, exactly as the pre-service code
            # registered it (single-object runs stay bit-identical).
            evader.observe(self._evader_event)
        else:
            evader.observe(
                lambda event, region, _oid=object_id: self._evader_event(
                    event, region, _oid
                )
            )

    def object_evader(self, object_id: int) -> Optional[Evader]:
        """The evader attached to lane ``object_id``, if any."""
        return self.objects.get(object_id)

    def _evader_event(self, event: str, region: RegionId, object_id: int = 0) -> None:
        """Augmented GPS: deliver move/left to the region's clients (§III).

        Delivery is synchronous — client local steps take no time, and
        the §IV-C model treats one evader move as atomically putting both
        the shrink and the grow in transit (there is no observable state
        between the ``left`` and the ``move``).
        """
        if event == "move":
            self.moves_observed += 1
        if self.gps_fault_delay is not None:
            extra = self.gps_fault_delay(event, region)
            if extra > 0.0:
                self.sim.call_after(
                    extra,
                    lambda: self._deliver_evader_event(event, region, object_id),
                    tag="gps-stale",
                )
                return
        self._deliver_evader_event(event, region, object_id)

    def _deliver_evader_event(self, event: str, region: RegionId, object_id: int = 0) -> None:
        if self.client_filter is not None and not self.client_filter(region):
            return
        if event == "move" and self.energy_ledger is not None:
            # One detection per delivered move, behind the client filter
            # so each sense is charged in exactly one shard.
            self.energy_ledger.charge_sense(region)
        client = self.clients[region]
        if not client.failed:
            if event == "move":
                client.input_move(region, object_id)
            else:
                client.input_left(region, object_id)

    # ------------------------------------------------------------------
    # Find API
    # ------------------------------------------------------------------
    def issue_find(
        self,
        origin: RegionId,
        retry_after: Optional[float] = None,
        max_retries: int = 3,
        find_id: Optional[int] = None,
        object_id: int = 0,
        deadline: Optional[float] = None,
    ) -> int:
        """Inject a find request at ``origin``'s client; returns the find id.

        Args:
            origin: Region whose client issues the query.
            retry_after: If set, re-issue the (same) find every
                ``retry_after`` time units until it completes or
                ``max_retries`` re-issues have fired.  Useful under VSA
                churn, where a find can die with a failed process.
            max_retries: Cap on re-issues when ``retry_after`` is set.
            find_id: Pre-assigned global id (sharded workloads assign
                ids in script order so shards never collide); defaults
                to the coordinator's own allocation.
            object_id: Which tracked object the query targets (§9).
            deadline: Optional latency budget recorded on the find.
        """
        client = self.clients[origin]
        target = self.object_evader(object_id)
        evader_region = target.region if target is not None else None
        find_id = self.finds.new_find(origin, evader_region, find_id=find_id,
                                      object_id=object_id, deadline=deadline)
        self.network.executor.deliver(client, self._find_action(find_id, object_id))
        if retry_after is not None:
            self._schedule_find_retry(origin, find_id, retry_after, max_retries, object_id)
        return find_id

    @staticmethod
    def _find_action(find_id: int, object_id: int) -> Action:
        if object_id == 0:
            # Payload identical to the pre-service code (bit-identity).
            return Action.input("find", find_id=find_id)
        return Action.input("find", find_id=find_id, object_id=object_id)

    def _schedule_find_retry(self, origin: RegionId, find_id: int, retry_after: float,
                             retries_left: int, object_id: int = 0) -> None:
        if retries_left <= 0:
            return

        def retry() -> None:
            record = self.finds.records[find_id]
            if record.completed:
                return
            client = self.clients[origin]
            if not client.failed:
                self.network.executor.deliver(client, self._find_action(find_id, object_id))
                record.retries += 1
            self._schedule_find_retry(origin, find_id, retry_after, retries_left - 1, object_id)

        self.sim.call_after(retry_after, retry, tag=f"find-retry:{find_id}")

    # ------------------------------------------------------------------
    # Execution helpers
    # ------------------------------------------------------------------
    def run(self, duration: float) -> None:
        self.sim.run_until(self.sim.now + duration)

    def run_to_quiescence(self, max_events: Optional[int] = None) -> int:
        """Drain all pending events (requires mobility to be stopped)."""
        return self.sim.run(max_events=max_events)

    def settle_time(self) -> float:
        """An upper bound on the time for one move's updates to settle."""
        from ..mobility.speed import atomic_dwell

        return atomic_dwell(self.schedule, self.hierarchy.params, self.delta, self.e)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def snapshot(self) -> SystemSnapshot:
        return capture_snapshot(self)

    def tracker(self, clust: ClusterId) -> Tracker:
        return self.trackers[clust]

    def tracker_at(self, region: RegionId, level: int) -> Tracker:
        return self.trackers[self.hierarchy.cluster(region, level)]
