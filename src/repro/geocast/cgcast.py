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

from collections import defaultdict
from inspect import unwrap
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

from ..geometry.regions import RegionId
from ..obs._state import OBS as _OBS
from ..obs.events import MessageDispatched
from ..hierarchy.cluster import ClusterId
from ..hierarchy.hierarchy import ClusterHierarchy
from ..sim.engine import Simulator
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
# copy with (src, dest, payload, deliver_time).  Returning True claims
# the copy for cross-shard transport — the dispatcher then skips local
# scheduling; the destination shard registers it (:meth:`CGcast.remote_copy`)
# and delivers it via :meth:`CGcast.apply_remote`.
ShardRouter = Callable[[Any, Any, Any, float], bool]


class CGcast:
    """Cluster geocast over a hierarchy, with the exact §II-C.3 delays.

    Args:
        sim: The simulator.
        hierarchy: Cluster hierarchy defining levels, parents, neighbors.
        delta: Physical broadcast delay ``δ``.
        e: VSA emulation lag ``e``.

    Cluster processes register with :meth:`register_process`; client
    receivers register per region with :meth:`register_client_sink`.
    Both tables are read with ``[]`` only: a world that builds its
    automata on first use (:class:`~repro.core.vinestalk.VineStalk`)
    swaps in dicts whose ``__missing__`` builds, which ``.get`` skips.
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
        self.processes: Dict[ClusterId, TimedAutomaton] = {}
        self.client_sinks: Dict[RegionId, List[Callable[[Any], None]]] = defaultdict(list)
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
        # Copies in transit, keyed by identity (a duplicated copy is its own
        # entry): insertion order is send order; delivery is one O(1) delete.
        self._in_transit: Dict[_Copy, None] = {}
        # src → {dest → distance units}: the hierarchy never changes, so
        # the §II-C.3 rule outcome is a pure function of the pair, and
        # ``(delay, cost)`` one of the units (``_unit_costs``).
        self._units: Dict[ClusterId, Dict[ClusterId, int]] = defaultdict(dict)
        self._unit_costs: Dict[int, Tuple[float, float]] = {}

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register_process(self, clust: ClusterId, automaton: TimedAutomaton) -> None:
        """Bind cluster ``clust``'s Tracker process."""
        if clust in self.processes:
            raise ValueError(f"process for {clust} already registered")
        self.processes[clust] = automaton

    def register_client_sink(
        self, region: RegionId, sink: Callable[[Any], None]
    ) -> None:
        """Register a callback receiving client-bound messages in ``region``."""
        self.client_sinks.setdefault(region, []).append(sink)

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
        return [(c.src, c.dest, c.payload, c.when) for c in self._in_transit]

    # ------------------------------------------------------------------
    # Delay / cost model
    # ------------------------------------------------------------------
    def vsa_distance_units(self, src: ClusterId, dest: ClusterId) -> int:
        """Distance units of a VSA→VSA message per rules (a)-(c).

        This is both the charged work and (times ``δ+e``) the delay.
        :meth:`send_vsa` evaluates it once per (src, dest) pair and keeps
        the result.
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
        # the tiling's own: Chebyshev on a grid, a memoised BFS row on a graph.
        return max(1, h.tiling.distance(h.head(src), h.head(dest)))

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def send_vsa(self, src: ClusterId, dest: ClusterId, payload: Any) -> None:
        """Cluster process ``src`` sends ``payload`` to cluster process ``dest``."""
        by_dest = self._units[src]
        units = by_dest.get(dest)
        if units is None:
            units = by_dest[dest] = self.vsa_distance_units(src, dest)
            if units not in self._unit_costs:
                self._unit_costs[units] = ((self.delta + self.e) * units, float(units))
        delay, cost = self._unit_costs[units]
        self._dispatch(src, dest, payload, delay, cost, self.processes[dest])

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
        self._dispatch(src, ("clients", region), payload, delay, 1.0, None)

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
        self._dispatch(region, dest, payload, delay, 1.0, self.processes[dest])

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
        target: Optional[TimedAutomaton],
    ) -> None:
        """Account for one send and put its delivery copies in transit,
        each a :class:`_Copy` of ``target`` (None: ``dest``'s clients)."""
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
            if router is not None and router(src, dest, payload, when):
                continue  # claimed for cross-shard transport
            copy = _Copy(self, src, dest, payload, when, target)
            self._in_transit[copy] = None
            self._transport(src, dest, when, copy)

    def _transport(
        self, src: Any, dest: Any, when: float, deliver: Callable[[], None]
    ) -> None:
        """Carry one copy to its destination: ``deliver()`` runs at ``when``."""
        self.sim.call_at(when, deliver, tag="cgcast")

    def remote_copy(self, src: Any, dest: Any, payload: Any, when: float) -> "_Copy":
        """Put a copy routed in from another shard in transit until
        :meth:`apply_remote` delivers it at ``when``.  The receiving shard
        decoded it into this world's own cluster instances."""
        copy = _Copy(self, src, dest, payload, when, None)
        self._in_transit[copy] = None
        return copy

    def apply_remote(self, copy: "_Copy") -> None:
        """Deliver a :meth:`remote_copy`, at the current simulation time.

        The sending shard already did the dispatch accounting (count,
        cost, observers, fault filter); this applies only the terminal
        delivery.  The cluster process is read now, as a local copy's is
        at its send.
        """
        dest = copy.dest
        if not (isinstance(dest, tuple) and len(dest) == 2 and dest[0] == "clients"):
            copy.target = self.processes[dest]
        copy()


class _Copy:
    """One delivery copy in transit: its :meth:`CGcast.in_transit` entry
    and, called at ``when``, its delivery event.  ``target`` is the cluster
    process read at send time; a rule (d) copy has none and reads its
    region's client sinks at delivery."""

    __slots__ = ("cgcast", "src", "dest", "payload", "when", "target")

    def __init__(self, cgcast, src, dest, payload, when, target) -> None:
        self.cgcast = cgcast
        self.src = src
        self.dest = dest
        self.payload = payload
        self.when = when
        self.target = target

    def __call__(self) -> None:
        """Leave the registry, then the ``cTOBrcv`` input and (urgency)
        the receiver's drain, or each client sink."""
        del self.cgcast._in_transit[self]
        target = self.target
        if target is None:
            for sink in self.cgcast.client_sinks[self.dest[1]]:
                sink(self.payload)
        elif not target.failed:
            target.input_cTOBrcv(self.payload)
            target.executor.kick(target)
