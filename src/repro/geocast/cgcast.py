"""C-gcast: the cluster geocast service (§II-C.3).

C-gcast lets the Tracker subautomaton hosted for cluster ``c`` at its
head VSA exchange messages with other cluster processes and with
clients.  Per the paper, when no VSAs fail over the broadcast period a
message is received at *exactly* these times after sending:

(a) level-l cluster → neighboring cluster:            ``(δ+e) · n(l)``
(b) level-l cluster → parent, or level-(l+1) → child: ``(δ+e) · p(l)``
(c) level-l cluster → neighbor of a neighbor:         ``(δ+e) · 2n(l)``
(d) level-0 cluster → own/neighbor region clients:    ``δ+e``
(e) client → its own/neighboring region's cluster:    ``δ``

Pairs outside the enumerated relations (e.g. a find forwarded to a
*neighbor's child*, reachable via a findAck pointer) are charged
``(δ+e) · max(1, region-graph distance between the cluster heads)``,
the same quantity the enumerated rules encode (see DESIGN.md §3.4).

Work accounting: every VSA→VSA message costs its delay divided by
``(δ+e)`` — i.e., the distance it traverses — matching the cost algebra
of Theorems 4.9/5.2; client↔cluster messages cost 1.
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial
from inspect import unwrap
from itertools import count
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

from ..geometry.regions import RegionId
from ..obs._state import OBS as _OBS
from ..obs.events import MessageDispatched
from ..hierarchy.cluster import ClusterId
from ..hierarchy.hierarchy import ClusterHierarchy
from ..sim.engine import Simulator
from ..tioa.actions import Action, ActionKind
from ..tioa.automaton import TimedAutomaton


class SendRecord(NamedTuple):
    """One routed message, as seen by accounting subscribers.

    A named tuple: one is built per send (by ``tuple.__new__``, which
    skips the generated ``__new__``'s extra frame).

    Attributes:
        time: Send time.
        src: Sender (ClusterId, or region id for clients).
        dest: Destination (ClusterId, or ``("clients", region)``).
        payload: The message object.
        cost: Charged communication work (region-graph distance units).
        delay: End-to-end delivery delay.
    """

    time: float
    src: Any
    dest: Any
    payload: Any
    cost: float
    delay: float


# Subscriber for accounting: gets the records in batches (CGcast.observe).
SendObserver = Callable[[List[SendRecord]], None]

#: Pending records are handed over once this many wait, so a batch stays
#: small beside the world: the send fold keeps no line past its batch but
#: those of the clock window still open.
_BATCH = 4096

# Fault interposition hook (see repro.faults): called once per dispatch
# with (src, dest, payload, delay); returns the per-copy delivery delays
# (empty list = message dropped), or None to deliver exactly as normal.
FaultFilter = Callable[[Any, Any, Any, float], Optional[List[float]]]

# Shard routing hook (see repro.sim.sharded): called once per delivery
# copy with (src, dest, dest_region, payload, deliver_time).  Returning
# True claims the copy for cross-shard transport — the dispatcher then
# skips local scheduling; the sharded driver re-injects it in the
# destination shard via :meth:`CGcast.apply_remote`.
ShardRouter = Callable[[Any, Any, RegionId, Any, float], bool]


def _rcv(payload: Any) -> Action:
    """The ``cTOBrcv`` input delivering ``payload``.

    Inline ``Action.input("cTOBrcv", message=payload)``: a single-key
    payload needs no sort.
    """
    return Action("cTOBrcv", ActionKind.INPUT, (("message", payload),))


class CGcast:
    """Cluster geocast over a hierarchy, with the exact §II-C.3 delays.

    Args:
        sim: The simulator.
        hierarchy: Cluster hierarchy defining levels, parents, neighbors.
        delta: Physical broadcast delay ``δ``.
        e: VSA emulation lag ``e``.

    Cluster processes register with :meth:`register_process`; client
    receivers register per region with :meth:`register_client_sink`.
    """

    def __init__(
        self,
        sim: Simulator,
        hierarchy: ClusterHierarchy,
        delta: float = 1.0,
        e: float = 0.0,
    ) -> None:
        if delta < 0 or e < 0:
            raise ValueError("delta and e must be non-negative")
        self.sim = sim
        self.hierarchy = hierarchy
        self.delta = delta
        self.e = e
        self._processes: Dict[ClusterId, TimedAutomaton] = {}
        # Canonical instance of every registered cluster id, for
        # re-interning ids that arrive unpickled from another shard.
        self._cluster_intern: Dict[ClusterId, ClusterId] = {}
        self._client_sinks: Dict[RegionId, List[Callable[[Any], None]]] = {}
        self._observers: List[SendObserver] = []
        # Records dispatched but not yet shown to the observers.
        self._pending: List[SendRecord] = []
        sim.add_loop_exit(self.flush)
        #: Optional fault-injection interposition point (repro.faults).
        #: When None (the default) dispatch is exactly the §II-C.3 path.
        self.fault_filter: Optional[FaultFilter] = None
        #: Optional cross-shard routing point (repro.sim.sharded).  When
        #: None (the default) every copy is scheduled locally.
        self.shard_router: Optional[ShardRouter] = None
        self.messages_sent = 0
        self.total_cost = 0.0
        # Copies currently in transit: transit key → ``(src, dest,
        # payload, deliver_time)``.  Keys count up, so the dict's
        # insertion order is send order, and delivery is one O(1) delete.
        self._in_transit: Dict[int, tuple] = {}
        self._transit_keys = count()
        # (src, dest) → compiled ``(delay, cost, target process)``.  The
        # hierarchy and the process registry never change once built,
        # so the §II-C.3 rule outcome is a pure function of the pair.
        self._routes: Dict[tuple, Tuple[float, float, TimedAutomaton]] = {}
        # The cTOBrcv envelope of the payload last sent: a tracker fans
        # one message object out to all its neighbors back to back.
        self._rcv_payload: Any = None
        self._rcv_action: Optional[Action] = None

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register_process(self, clust: ClusterId, automaton: TimedAutomaton) -> None:
        """Bind cluster ``clust``'s Tracker process."""
        if clust in self._processes:
            raise ValueError(f"process for {clust} already registered")
        self._processes[clust] = automaton
        self._cluster_intern[clust] = clust

    def process(self, clust: ClusterId) -> TimedAutomaton:
        try:
            return self._processes[clust]
        except KeyError:
            raise KeyError(f"no process registered for {clust}") from None

    def register_client_sink(
        self, region: RegionId, sink: Callable[[Any], None]
    ) -> None:
        """Register a callback receiving client-bound messages in ``region``."""
        self._client_sinks.setdefault(region, []).append(sink)

    def observe(self, observer: SendObserver) -> None:
        """Subscribe ``observer(records)`` to the send records.

        It gets lists of :class:`SendRecord` in dispatch order, each
        record exactly once, at every :meth:`flush`: when ``_BATCH``
        records wait, when the event loop returns, and at once for a
        send made while the loop is idle.  So whenever the loop is not
        running every observer has seen every record; only code inside
        an event must :meth:`flush` before it reads what an observer
        keeps.  A late subscriber starts after the records sent so far.
        """
        self.flush()
        self._observers.append(observer)

    def unobserve(self, observer: SendObserver) -> None:
        """Unsubscribe ``observer`` once it has seen every record so far.

        A wrapper subscribed in its place — one that names it through
        ``__wrapped__``, as :func:`functools.wraps` does — goes too.
        """
        self.flush()
        self._observers = [o for o in self._observers if unwrap(o) != observer]

    def flush(self) -> None:
        """Hand the pending records to every observer, as one list."""
        pending = self._pending
        if pending:
            self._pending = []
            for observer in self._observers:
                observer(pending)

    def in_transit(self) -> List[tuple]:
        """Snapshot of undelivered messages: ``(src, dest, payload, time)``."""
        return list(self._in_transit.values())

    # ------------------------------------------------------------------
    # Delay / cost model
    # ------------------------------------------------------------------
    def vsa_distance_units(self, src: ClusterId, dest: ClusterId) -> int:
        """Distance units of a VSA→VSA message per rules (a)-(c).

        This is both the charged work and (times ``δ+e``) the delay.
        :meth:`send_vsa` evaluates it once per (src, dest) pair, when it
        compiles the pair's route.
        """
        h = self.hierarchy
        params = h.params
        if src.level == dest.level:
            nbrs = h.nbrs(src)
            if dest in nbrs:
                return params.n(src.level)  # rule (a)
            for nb in nbrs:
                if dest in h.nbrs(nb):
                    return 2 * params.n(src.level)  # rule (c)
        elif dest.level == src.level + 1:
            if h.parent(src) == dest:
                return params.p(src.level)  # rule (b), upward
        elif dest.level == src.level - 1:
            if h.parent(dest) == src:
                return params.p(dest.level)  # rule (b), downward
        # Fallback: exact distance between heads (see module docstring),
        # read from the tiling's shared flat distance table — same
        # values as ``h.head_distance`` (BFS == tiling.distance), no
        # per-call BFS on cold (src, dest) pairs.
        from ..topo.distances import distance_table

        table = distance_table(h.tiling)
        return max(1, table.distance(h.head(src), h.head(dest)))

    def vsa_delay(self, src: ClusterId, dest: ClusterId) -> float:
        """Exact delivery delay for a VSA→VSA message."""
        return (self.delta + self.e) * self.vsa_distance_units(src, dest)

    def vsa_cost(self, src: ClusterId, dest: ClusterId) -> float:
        """Communication work charged for a VSA→VSA message."""
        return float(self.vsa_distance_units(src, dest))

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def send_vsa(self, src: ClusterId, dest: ClusterId, payload: Any) -> None:
        """Cluster process ``src`` sends ``payload`` to cluster process ``dest``."""
        route = self._routes.get((src, dest))
        if route is None:
            units = self.vsa_distance_units(src, dest)
            route = ((self.delta + self.e) * units, float(units), self.process(dest))
            self._routes[(src, dest)] = route
        delay, cost, target = route
        if payload is not self._rcv_payload:
            self._rcv_payload = payload
            self._rcv_action = _rcv(payload)
        self._dispatch(
            src, dest, payload, delay, cost, self._fire, target, self._rcv_action
        )

    def send_to_clients(self, src: ClusterId, payload: Any) -> None:
        """Level-0 cluster broadcasts to its own region's clients (rule (d)).

        §V's "clients in that and neighboring regions" coverage comes
        from the Tracker relaying ``found`` to level-0 neighbor clusters,
        which re-broadcast to their own regions (Fig. 2 lines 98-99).
        """
        if src.level != 0:
            raise ValueError("only level-0 clusters broadcast to clients")
        delay = self.delta + self.e  # rule (d)
        region = self.hierarchy.head(src)
        self._dispatch(
            src, ("clients", region), payload, delay, 1.0,
            self._fire_clients, region, payload,
        )

    def send_from_client(
        self, region: RegionId, dest: ClusterId, payload: Any
    ) -> None:
        """A client in ``region`` sends to its own/neighboring level-0 cluster."""
        if dest.level != 0:
            raise ValueError("clients send to level-0 clusters only")
        dest_region = self.hierarchy.head(dest)
        if dest_region != region and not self.hierarchy.tiling.are_neighbors(
            region, dest_region
        ):
            raise ValueError(
                f"client in {region!r} cannot reach cluster of {dest_region!r}"
            )
        delay = self.delta  # rule (e)
        self._dispatch(
            region, dest, payload, delay, 1.0,
            self._fire, self.process(dest), _rcv(payload),
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _dispatch(
        self,
        src: Any,
        dest: Any,
        payload: Any,
        delay: float,
        cost: float,
        fire: Callable[..., None],
        *args: Any,
    ) -> None:
        """Account for one send and put its delivery copies in transit.

        ``fire(key, *args)`` is the terminal delivery of one copy; it
        runs at the copy's delivery time with the copy's transit key.
        """
        sim = self.sim
        now = sim.now
        self.messages_sent += 1
        self.total_cost += cost
        pending = self._pending
        pending.append(
            tuple.__new__(SendRecord, (now, src, dest, payload, cost, delay))
        )
        if len(pending) >= _BATCH or not sim.running:
            self.flush()
        # A filter returning None leaves the exact single-delivery
        # schedule in place; an empty list drops the message.
        delays = None
        if self.fault_filter is not None:
            delays = self.fault_filter(src, dest, payload, delay)
        if delays is None:
            delays = (delay,)
        if _OBS.events_enabled:
            _OBS.emit(MessageDispatched(
                now, src, dest, type(payload).__name__, cost, delay, len(delays)
            ))
        router = self.shard_router
        for copy_delay in delays:
            when = now + copy_delay
            if router is not None and router(
                src, dest, self.dest_region_of(dest), payload, when
            ):
                continue  # claimed for cross-shard transport
            key = next(self._transit_keys)
            self._in_transit[key] = (src, dest, payload, when)
            self._transport(src, dest, when, partial(fire, key, *args))

    def _transport(
        self, src: Any, dest: Any, when: float, deliver: Callable[[], None]
    ) -> None:
        """Carry one copy to its destination: ``deliver()`` runs at ``when``."""
        self.sim.call_at(when, deliver, tag="cgcast")

    def _fire(self, key: int, target: TimedAutomaton, action: Action) -> None:
        """Delivery event of a copy bound for a cluster process."""
        del self._in_transit[key]
        if not target.failed:
            target.handle_input(action)
            # Urgency: drain locally controlled actions of the receiver.
            target.executor.kick(target)

    def _fire_clients(self, key: int, region: RegionId, payload: Any) -> None:
        """Delivery event of a rule (d) broadcast to ``region``'s clients."""
        del self._in_transit[key]
        for sink in self._client_sinks.get(region, ()):
            sink(payload)

    def dest_region_of(self, dest: Any) -> RegionId:
        """Region that hosts ``dest`` — where delivery physically lands.

        A cluster process lives at its head VSA's region; a
        ``("clients", region)`` broadcast lands in that region.  This is
        the key the sharded driver partitions on.
        """
        if isinstance(dest, ClusterId):
            return self.hierarchy.head(dest)
        if isinstance(dest, tuple) and len(dest) == 2 and dest[0] == "clients":
            return dest[1]
        raise ValueError(f"cannot locate destination {dest!r}")

    def apply_remote(self, src: Any, dest: Any, payload: Any) -> None:
        """Deliver a message routed in from another shard.

        The sending shard already did the dispatch accounting (count,
        cost, observers, fault filter); this applies only the terminal
        delivery, at the current simulation time.  Cluster ids arriving
        here were unpickled by the transport, so they are equal-but-not-
        identical to the local world's: re-intern the payload's against
        the registered processes so every later comparison (``lane.c ==
        message.cid`` and friends) takes ``ClusterId.__eq__``'s identity
        fast path instead of tuple equality.
        """
        payload = self._intern_payload(payload, self._cluster_intern)
        if isinstance(dest, tuple) and len(dest) == 2 and dest[0] == "clients":
            for sink in self._client_sinks.get(dest[1], ()):
                sink(payload)
            return
        target = self._processes.get(dest)
        if target is not None and not target.failed:
            target.handle_input(_rcv(payload))
            target.executor.kick(target)

    @staticmethod
    def _intern_payload(payload: Any, intern: Dict[ClusterId, ClusterId]) -> Any:
        """``payload`` with canonical (identity-interned) cluster ids.

        Returns the object unchanged (no allocation) when its pointer
        fields are already canonical or absent.
        """
        replacements = {}
        for field_name in ("cid", "pointer"):
            cid = getattr(payload, field_name, None)
            if isinstance(cid, ClusterId):
                canonical = intern.get(cid)
                if canonical is not None and canonical is not cid:
                    replacements[field_name] = canonical
        if not replacements:
            return payload
        try:
            return replace(payload, **replacements)
        except TypeError:  # not a dataclass: leave as delivered
            return payload
