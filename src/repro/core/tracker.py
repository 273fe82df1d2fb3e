"""The Tracker subautomaton ``Tracker_{u,lvl}`` (Fig. 2).

One Tracker runs per cluster, hosted at the VSA of the cluster's head
region.  Trackers jointly maintain the tracking path (child pointer
``c``, parent pointer ``p``, secondary pointers ``nbrptup`` /
``nbrptdown``) and service finds (two phases: search, trace).

The translation follows Fig. 2 statement by statement; the two places
where the printed figure and the prose of §IV-B disagree are resolved
in favour of the prose / ``lookAhead`` semantics — see DESIGN.md §3:

1. a received ``grow`` always updates ``c`` (the figure's guard would
   prevent the path junction from repointing);
2. the shrink timer is armed only when ``p ≠ ⊥`` (the figure arms it
   unconditionally below MAX, which could clobber a pending grow timer).

TIOA urgency ("stops when any precondition is satisfied") is realised
by the executor calling :meth:`Tracker.step` after every input and
wakeup until it reports no enabled action.  C-gcast delivers by calling
:meth:`Tracker.input_cTOBrcv`, and ``step`` calls the first enabled
``output_*`` / ``internal_*`` effect in place: no
:class:`~repro.tioa.actions.Action` is built on either path.
:meth:`Tracker._next_action` is the one copy of the Fig. 2 precedence;
:meth:`Tracker.enabled_outputs` reads it as an ``Action``.

Multi-object lanes (DESIGN.md §9)
---------------------------------
One Tracker hosts one *lane* of Fig. 2 state per tracked object.  Lane
``0`` — the single evader of the original paper — lives directly in the
tracker's own attributes (``self.c``, ``self.timer``, ...), so the
single-object execution is bit-identical to the pre-service code.  An
extra lane is an :class:`ObjectLane` only while it holds ``c``, ``p``, a
find or a future deadline.  With just secondary pointers its ``_lanes``
value is its bare ``nbrptup`` or the ``(nbrptup, nbrptdown)`` tuple
(:meth:`Tracker._keep_pair`), and with nothing it is absent, reading as
⊥ (as a §IV-C snapshot reads an absent cluster).  A
``GrowPar``/``GrowNbr``/``ShrinkUpd``/``FindQuery`` receipt for such an
object runs its ``_recv_*`` rule on the pair alone; any other receipt
promotes the pair (:meth:`Tracker.lane`), and the drain demotes a
quiesced lane back to it.  A lane's two deadlines are :class:`LaneDeadline`
records built on first arm (:data:`NEVER_ARMED` until then), all riding
one shared wheel :class:`Timer` armed at the minimum outstanding
deadline, so a tracker schedules O(1) executor wakeups however many
objects route through it.  ``sendq`` and ``findAckq`` stay shared FIFOs
(messages carry their ``object_id``).

O(active) scheduling (DESIGN.md §9.5)
-------------------------------------
Nothing scans all lanes.  A *dirty set* holds the object ids that may
have an enabled action: a lane enters it on a receipt or a due
deadline, and leaves when :meth:`Tracker._lane_enabled` returns nothing
for it; it is served in sorted object-id order, the full scan's order.
Deadlines sit in a lazy min-heap of ``(deadline, object_id)`` entries
(stale ones dropped when popped), serviced before the first same-instant
drain reads them.  Sound because a lane outside the dirty set has no
enabled action, and time alone enables one only through a deadline.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import List, Optional

from ..hierarchy.cluster import ClusterId
from ..hierarchy.hierarchy import ClusterHierarchy
from ..obs._state import OBS as _OBS
from ..obs.events import FindForwarded, FindQueryIssued, FoundAnnounced, GrowSent, ShrinkSent
from ..tioa.actions import Action
from ..tioa.automaton import TimedAutomaton
from ..tioa.timers import INFINITY, Timer
from .messages import (Find, FindAck, FindQuery, Found, Grow, GrowNbr, GrowPar, Shrink,
                       ShrinkUpd, TrackerMessage)
from .timers import TimerSchedule

BOTTOM = None  # ⊥ of Fig. 2


class LaneDeadline:
    """A per-lane deadline riding its tracker's shared wheel timer.

    The :class:`~repro.tioa.timers.Timer` surface Fig. 2 reads, with no
    executor event: arming pushes ``(deadline, object_id)`` onto the
    tracker's deadline heap and re-arms the wheel; a disarm strands its
    entry, which the heap drops lazily.  Built by
    :meth:`Tracker._arm_deadline` on a lane's first arm.
    """

    __slots__ = ("_tracker", "_object_id", "deadline")

    def __init__(self, tracker: "Tracker", object_id: int) -> None:
        self._tracker = tracker
        self._object_id = object_id
        self.deadline: float = INFINITY

    @property
    def armed(self) -> bool:
        return self.deadline != INFINITY

    def arm(self, deadline: float) -> None:
        tracker = self._tracker
        if deadline < tracker.now:
            raise ValueError(f"lane deadline {deadline} is in the past (now={tracker.now})")
        self.deadline = deadline
        heappush(tracker._deadline_heap, (deadline, self._object_id))
        tracker._rearm_wheel()

    def disarm(self) -> None:
        if self.deadline != INFINITY:
            self.deadline = INFINITY
            self._tracker._rearm_wheel()


#: An extra lane's ``timer``/``nbrtimeout`` before its first arm (disarmed; no tracker to arm).
NEVER_ARMED = LaneDeadline(None, 0)
NO_PENDING: frozenset = frozenset()  # an empty ``_timeout_pending``: a set only once added to


class _SecondaryPair:
    """The transient lane a secondary receipt's rule runs on when its object
    has no :class:`ObjectLane`: ``c`` and ``p`` are ⊥, the pointers loaded."""

    __slots__ = ("nbrptup", "nbrptdown")
    c = p = BOTTOM


#: Receipts whose ``_recv_*`` rule reads ``c`` and touches only the secondary pointers.
_SECONDARY_RECEIPTS = frozenset({GrowPar, GrowNbr, ShrinkUpd, FindQuery})


def _secondary(value) -> tuple:
    """``(nbrptup, nbrptdown)`` of a lane kept by :meth:`Tracker._keep_pair`."""
    return value if value.__class__ is tuple else (value, BOTTOM)


class ObjectLane:
    """Fig. 2 per-object state for one extra tracked object (§9).

    Built by the first receipt or arm that needs ``c``, ``p``, a find or
    a deadline; demoted by :meth:`Tracker._next_action` to its secondary
    pair (or to nothing) once it quiesces holding none of them.
    """

    __slots__ = ("object_id", "c", "p", "nbrptup", "nbrptdown", "finding", "find_id", "timer",
                 "nbrtimeout", "ackptr", "timeout_due")

    def __init__(self, object_id: int) -> None:
        self.object_id = object_id
        self.c: Optional[ClusterId] = BOTTOM
        self.p: Optional[ClusterId] = BOTTOM
        self.nbrptup: Optional[ClusterId] = BOTTOM
        self.nbrptdown: Optional[ClusterId] = BOTTOM
        self.finding = False
        self.find_id = 0
        self.timer = self.nbrtimeout = NEVER_ARMED
        # Ack arbitration: the canonically smallest qualifying FindAck
        # pointer, acted on at the wheel wakeup after every same-instant
        # delivery, so the arrival order of simultaneous acks never shows.
        self.ackptr: Optional[ClusterId] = None
        self.timeout_due = False


class Tracker(TimedAutomaton):
    """Cluster process ``clust = cluster(u, lvl)`` with ``h(clust) = u``.

    Args:
        hierarchy: The cluster hierarchy.
        clust: This process's cluster.
        cgcast: C-gcast service for ``cTOBsend``/``cTOBrcv``.
        schedule: Grow/shrink timer schedule satisfying Eq. (1).
        delta: Broadcast delay ``δ`` (for the find neighbor timeout).
        e: Emulation lag ``e`` (same).
    """

    #: Lane-0 object id; also makes ``self`` usable wherever an
    #: :class:`ObjectLane` is expected.
    object_id = 0

    #: Message class → its ``_recv_<kind>`` function, filled on first
    #: receipt: one table per class, so a subclass's override wins.
    _recv_table: dict = {}

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._recv_table = {}

    __slots__ = ("hierarchy", "clust", "lvl", "cgcast", "schedule", "delta", "e", "max_level",
                 "nbr_clusters", "parent_cluster", "c", "p", "nbrptup", "nbrptdown", "sendq",
                 "timer", "nbrtimeout", "findAckq", "finding", "find_id",
                 "_lanes", "_lane_wheel", "_dirty", "_deadline_heap", "_timeout_pending")

    def __init__(self, hierarchy: ClusterHierarchy, clust: ClusterId, cgcast,
                 schedule: TimerSchedule, delta: float, e: float) -> None:
        super().__init__(f"tracker:{clust.level}:{clust.key}")
        self.hierarchy = hierarchy
        self.clust = clust
        self.lvl = clust.level
        self.cgcast = cgcast
        self.schedule = schedule
        self.delta = delta
        self.e = e
        self.max_level = hierarchy.max_level
        # Static cluster environment (deterministic order).
        self.nbr_clusters: List[ClusterId] = hierarchy.nbrs(clust)
        self.parent_cluster: Optional[ClusterId] = hierarchy.parent(clust)

        # --- Fig. 2 state variables (lane 0) ---------------------------
        self.c: Optional[ClusterId] = BOTTOM
        self.p: Optional[ClusterId] = BOTTOM
        self.nbrptup: Optional[ClusterId] = BOTTOM
        self.nbrptdown: Optional[ClusterId] = BOTTOM
        self.sendq: List[tuple] = []  # (dest, TrackerMessage), FIFO
        self.timer = Timer(self, "timer")
        # --- find-related state (lane 0) -------------------------------
        self.nbrtimeout = Timer(self, "nbrtimeout")
        self.findAckq: List[tuple] = []  # (dest, FindAck)
        self.finding = False
        self.find_id = 0  # bookkeeping tag of the find in service
        # --- extra object lanes (created on demand) --------------------
        self._lanes = {}
        self._lane_wheel = None
        # O(active) scheduling (module docstring): the dirty set, the lazy
        # deadline heap, and lanes whose ``timeout_due`` awaits the wheel.
        self._dirty: set = set()
        self._deadline_heap: list = []
        self._timeout_pending = NO_PENDING

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def reset_state(self) -> None:
        self.c = self.p = self.nbrptup = self.nbrptdown = BOTTOM
        self.sendq = []
        self.findAckq = []
        self.finding = False
        self.find_id = 0
        self._lanes.clear()
        self._dirty = set()
        self._deadline_heap = []
        self._timeout_pending = NO_PENDING
        Tracker.on_failed(self)  # disarm lane 0's timers and the wheel

    def on_failed(self) -> None:
        self.timer.disarm()
        self.nbrtimeout.disarm()
        wheel = self._lane_wheel
        if wheel is not None:
            wheel.disarm()

    def on_wakeup(self, tag=None) -> None:
        if tag != "lane-wheel":
            return
        # Collect the deadlines due now, then flag every pending lane
        # whose find roundtrip is over, so the drain forwards it to its
        # best recorded ack pointer or escalates: one decision point,
        # after all same-instant deliveries (the wheel's priority).  The
        # heap fills ``_timeout_pending`` once per armed roundtrip, and
        # a wheel re-armed past the instant flags the lane at its next
        # wakeup, as the full sweep did.
        self._service_heap()
        pending = self._timeout_pending
        if pending:
            lanes = self._lanes
            dirty = self._dirty
            now = self.now
            for oid in sorted(pending):
                lane = lanes.get(oid)
                # Not reclaimed or demoted since; the deadline armed (!= INFINITY).
                if lane.__class__ is ObjectLane and lane.finding and (
                        lane.nbrtimeout.deadline <= now):
                    lane.timeout_due = True
                    dirty.add(oid)
            self._timeout_pending = NO_PENDING
        # Hand the wheel on to the next future deadline (a drain that
        # touches no LaneDeadline would leave it dead otherwise).
        self._rearm_wheel()

    # ------------------------------------------------------------------
    # Object lanes
    # ------------------------------------------------------------------
    def lane(self, object_id: int):
        """The lane for ``object_id`` (``self`` for lane 0): an
        :class:`ObjectLane`, built from its secondary pair if need be."""
        if object_id == 0:
            return self
        lanes = self._lanes
        lane = lanes.get(object_id)
        if lane.__class__ is not ObjectLane:
            pair = lane
            lane = lanes[object_id] = ObjectLane(object_id)
            if pair is not None:
                lane.nbrptup, lane.nbrptdown = _secondary(pair)
        return lane

    def _keep_pair(self, object_id: int, up, down) -> None:
        """Hold lane ``object_id`` as its secondary pointers alone: nothing
        when both are ⊥, a bare ``nbrptup`` when that is all, else the pair."""
        if down is not BOTTOM:
            self._lanes[object_id] = (up, down)
        elif up is not BOTTOM:
            self._lanes[object_id] = up
        else:
            self._lanes.pop(object_id, None)

    def _arm_deadline(self, lane, name: str, deadline: float) -> None:
        """Arm ``lane``'s ``"timer"`` or ``"nbrtimeout"`` (the one arming path).

        An extra lane's :class:`LaneDeadline` is built here, on its first arm.
        """
        timer = getattr(lane, name)
        if timer is NEVER_ARMED:
            timer = LaneDeadline(self, lane.object_id)
            setattr(lane, name, timer)
        timer.arm(deadline)

    def _service_heap(self) -> float:
        """Pop due/stale deadline-heap entries; return the next live one.

        An entry is *live* while its lane's ``timer`` or ``nbrtimeout``
        still equals it.  A live due entry dirties its lane (when the full
        scan would first have seen it expire) and, for a find roundtrip,
        queues it for ``timeout_due`` at the next wheel wakeup.  Returns
        the minimum future live deadline (``INFINITY`` when none).
        """
        heap = self._deadline_heap
        if not heap:
            return INFINITY
        lanes = self._lanes
        dirty = self._dirty
        pending = self._timeout_pending
        now = self.now
        while heap:
            d, oid = heap[0]
            lane = lanes.get(oid)
            if lane.__class__ is not ObjectLane:  # reclaimed or demoted: stale
                heappop(heap)
                continue
            timer_live = lane.timer.deadline == d
            nbr_live = lane.nbrtimeout.deadline == d
            if not (timer_live or nbr_live):
                heappop(heap)  # stale: superseded by a later push
                continue
            if d > now:
                return d
            heappop(heap)
            dirty.add(oid)
            if nbr_live:
                if not pending:
                    pending = self._timeout_pending = set()
                pending.add(oid)
        return INFINITY

    def _rearm_wheel(self) -> None:
        """Re-arm the shared wheel at the minimum *future* lane deadline.

        Deadlines at or before ``now`` never need a wakeup: a deadline
        due this instant is handled by the drain already in progress
        (every ``_rearm_wheel`` call site runs inside input processing
        or an output effect, both followed by a drain — and servicing
        the heap just re-dirtied its lane), and a deadline left armed
        in the past is unactionable by pure time passage (e.g.
        ``output_find_forward`` clears ``finding`` but per Fig. 2
        leaves ``nbrtimeout`` set).  Arming at such values would spin
        the wheel on no-op wakeups.
        """
        nxt = self._service_heap()
        wheel = self._lane_wheel
        if nxt == INFINITY:
            if wheel is not None:
                wheel.disarm()
            return
        if wheel is None:
            # priority=1: re-arming gives the wheel a fresh event-queue
            # sequence number, so on a deadline/message-delivery tie its
            # heap position would depend on *when* unrelated lane
            # activity last re-armed it — an order a partitioned run
            # cannot reproduce.  Such ties are structural, not rare: the
            # find timeout is armed at exactly the worst-case query
            # roundtrip 2(δ+e)n, which with deterministic delays is the
            # very instant the FindAcks land.  Firing *after* every
            # same-instant delivery is the one re-arm-invariant (hence
            # K-invariant) order, and it lets the wakeup arbitrate the
            # roundtrip with the complete ack set in hand (see
            # ``ObjectLane.ackptr``).
            wheel = Timer(self, "lane-wheel", priority=1)
            self._lane_wheel = wheel
        wheel.arm(nxt)

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _send(self, dest: ClusterId, message: TrackerMessage) -> None:
        self.cgcast.send_vsa(self.clust, dest, message)

    def _queue_to_nbrs(self, message: TrackerMessage, exclude=None) -> None:
        for nbr in self.nbr_clusters:
            if exclude is not None and nbr == exclude:
                continue
            self.sendq.append((nbr, message))

    # ------------------------------------------------------------------
    # Input: cTOBrcv — dispatch on message type
    # ------------------------------------------------------------------
    def input_cTOBrcv(self, message: TrackerMessage) -> None:
        handler = self._recv_table.get(type(message))
        if handler is None:
            handler = getattr(type(self), f"_recv_{message.kind}", None)
            if handler is None:
                raise TypeError(f"{self.name}: unhandled message {message!r}")
            self._recv_table[type(message)] = handler
        # getattr: extension message types (e.g. heartbeats) may not
        # carry an object_id; they belong to lane 0.
        object_id = getattr(message, "object_id", 0)
        if object_id == 0:
            handler(self, message, self)
            return
        lane = self._lanes.get(object_id)
        if lane.__class__ is not ObjectLane:
            if message.__class__ in _SECONDARY_RECEIPTS:
                # No c, p, find or deadline to read or enable: the one
                # rule runs on the pair, and no lane is built.
                pair = _SecondaryPair()
                pair.nbrptup, pair.nbrptdown = _secondary(lane)
                handler(self, message, pair)
                self._keep_pair(object_id, pair.nbrptup, pair.nbrptdown)
                return
            lane = self.lane(object_id)
        handler(self, message, lane)
        # The receipt may have enabled a lane action; the following
        # drain scans dirty lanes only.
        self._dirty.add(object_id)

    # --- move-related receipts -----------------------------------------
    def _recv_grow(self, message: Grow, lane) -> None:
        """Grow receipt: adopt the sender as child; maybe schedule a grow.

        Per §IV-B.1 prose (and lookAhead): ``c`` is always updated; the
        grow is *done* if already on the path (``p ≠ ⊥`` or MAX),
        otherwise the grow timer is armed — but never re-armed, so a
        pending grow keeps its original deadline.
        """
        was_bottom = lane.c is BOTTOM
        lane.c = message.cid
        if was_bottom and lane.p is BOTTOM and self.lvl != self.max_level:
            self._arm_deadline(lane, "timer", self.now + self.schedule.g(self.lvl))

    def _recv_growpar(self, message: GrowPar, lane) -> None:
        lane.nbrptup = message.cid

    def _recv_grownbr(self, message: GrowNbr, lane) -> None:
        lane.nbrptdown = message.cid

    def _recv_shrink(self, message: Shrink, lane) -> None:
        """Shrink receipt: drop deadwood child; maybe schedule a shrink.

        Only a ``c`` still pointing at the sender is cleared (a newer
        grow may have repointed it); the shrink timer is armed only when
        ``p ≠ ⊥`` (DESIGN.md §3.2).
        """
        if lane.c == message.cid:
            lane.c = BOTTOM
            if self.lvl != self.max_level and lane.p is not BOTTOM:
                self._arm_deadline(lane, "timer", self.now + self.schedule.s(self.lvl))

    def _recv_shrinkupd(self, message: ShrinkUpd, lane) -> None:
        if lane.nbrptup == message.cid:
            lane.nbrptup = BOTTOM
        if lane.nbrptdown == message.cid:
            lane.nbrptdown = BOTTOM

    # --- find-related receipts ------------------------------------------
    def _recv_find(self, message: Find, lane) -> None:
        lane.finding = True
        lane.find_id = message.find_id
        lane.nbrtimeout.disarm()  # nbrtimeout ← ∞
        if lane is not self:
            lane.ackptr = None
            lane.timeout_due = False

    def _recv_findquery(self, message: FindQuery, lane) -> None:
        reply: Optional[ClusterId] = None
        if lane.c is not BOTTOM:
            reply = lane.c
        elif lane.nbrptdown is not BOTTOM:
            reply = lane.nbrptdown
        elif lane.nbrptup is not BOTTOM:
            reply = lane.nbrptup
        if reply is not None:
            ack = FindAck(pointer=reply, find_id=message.find_id, object_id=message.object_id)
            self.findAckq.append((message.cid, ack))

    def _recv_findack(self, message: FindAck, lane) -> None:
        if not (
            lane.finding
            and message.pointer != self.clust
            and lane.c is BOTTOM
            and lane.nbrptdown is BOTTOM
            and lane.nbrptup in (BOTTOM, lane.p)
        ):
            return
        if lane is not self:
            # Extra lanes: with deterministic delays the acks of one
            # query land at the very instant nbrtimeout expires, and
            # acks of a superseded query may land mid-find — both are
            # arrival-order races a partitioned run cannot reproduce.
            # Record the canonically smallest fresh pointer instead;
            # the wheel wakeup (after all same-instant deliveries)
            # forwards to it, or escalates when no ack qualified.
            if message.find_id != lane.find_id:
                return
            if lane.ackptr is None or str(message.pointer) < str(lane.ackptr):
                lane.ackptr = message.pointer
            return
        find = Find(cid=self.clust, find_id=message.find_id, object_id=message.object_id)
        self.sendq.append((message.pointer, find))
        lane.finding = False

    def _recv_found(self, message: Found, lane) -> None:
        """A neighboring level-0 process announced found: relay to clients.

        Fig. 2 queues ``found`` to level-0 neighbors; §V says clients in
        that and neighboring regions receive it.  The neighbor process
        relays the announcement to its own region's clients.
        """
        if self.lvl == 0:
            self.cgcast.send_to_clients(self.clust, message)

    # ------------------------------------------------------------------
    # Locally controlled actions
    # ------------------------------------------------------------------
    def _next_action(self):
        """The Fig. 2 precedence: the first enabled locally controlled
        action as ``(effect, args)``, or ``None`` when none is enabled.

        Shared FIFOs first (they batch traffic for every lane), then
        lane 0 — exactly the pre-service order, so single-object runs
        are bit-identical — then *dirty* extra lanes in ascending
        object id.  Promoting due heap entries first keeps a deadline
        that expires this instant visible to every same-instant drain
        (priority-0 deliveries run before the wheel's priority-1
        wakeup), exactly as the full scan saw ``expired()``; the
        dirty-set invariant (quiesced lanes have no enabled action)
        then makes the dirty order and the full-scan order agree on
        the first enabled lane.  Cost: O(dirty · log dirty), not O(M).
        ``effect`` is the bound ``output_*``/``internal_*`` method, so a
        subclass override is what runs.
        """
        if self.sendq:
            return self.output_sendq_head, ()
        if self.findAckq:
            return self.output_findAckq_head, ()
        now = self.now
        if self.timer.deadline <= now or self.finding:  # lane 0 may be enabled
            action = self._lane_enabled(self, now)
            if action is not None:
                return action
        heap = self._deadline_heap
        if heap and heap[0][0] <= now:
            self._service_heap()
        dirty = self._dirty
        if dirty:
            lanes = self._lanes
            for object_id in sorted(dirty):
                lane = lanes[object_id]
                action = self._lane_enabled(lane, now)
                if action is not None:
                    return action
                dirty.discard(object_id)  # quiesced until re-touched
                # A quiesced lane with no c, p, find or future deadline
                # is its secondary pair (⊥ ⊥: nothing).  A future
                # nbrtimeout keeps it (its heap entry arms a wheel
                # wakeup); the drain after that wakeup demotes it.
                if (lane.c is lane.p is BOTTOM
                        and not lane.finding and lane.timer.deadline == INFINITY
                        and not now < lane.nbrtimeout.deadline < INFINITY):
                    self._keep_pair(object_id, lane.nbrptup, lane.nbrptdown)
        return None

    def step(self) -> bool:
        """Perform the :meth:`_next_action` in place (TIOA urgency)."""
        action = self._next_action()
        if action is None:
            return False
        effect, args = action
        effect(*args)
        return True

    def enabled_outputs(self) -> List[Action]:
        """:meth:`step`'s next action as an :class:`Action` keyed by effect parameters."""
        action = self._next_action()
        if action is None:
            return []
        effect, args = action
        kind, _, name = effect.__name__.partition("_")
        params = effect.__code__.co_varnames[1 : 1 + len(args)]
        return [getattr(Action, kind)(name, **dict(zip(params, args)))]

    def _lane_enabled(self, lane, now: float):
        """The enabled lane-local ``(effect, args)`` at ``now``, if any (Fig. 2, one lane)."""
        # ``timer.expired()`` without its frames: a disarmed deadline is
        # +inf, so the comparison alone says "armed and due".
        if lane.timer.deadline <= now:
            # Grow send: now = timer ∧ c ≠ ⊥ ∧ p = ⊥.
            if lane.c is not BOTTOM and lane.p is BOTTOM:
                return self.output_grow_send, (lane.object_id,)
            # Shrink send: now = timer ∧ c = ⊥ ∧ p ≠ ⊥.
            if lane.c is BOTTOM and lane.p is not BOTTOM:
                return self.output_shrink_send, (lane.object_id,)
            # Timer fired but neither grow nor shrink is enabled (the
            # pointer it guarded was changed in flight): disarm lazily.
            lane.timer.disarm()
        if lane.finding:
            return self._find_progress_action(lane)
        return None

    def _find_progress_action(self, lane):
        """The enabled find-related ``(effect, args)``, if any (Fig. 2 find section)."""
        # found: finding ∧ c = clust.
        if lane.c == self.clust:
            return self.output_found_send, (lane.object_id,)
        # find forward: tracing via c, or searching via pointers/timeout.
        dest = self._find_forward_dest(lane)
        if dest is not None:
            return self.output_find_forward, (dest, lane.object_id)
        # findquery: c = nbrptdown = ⊥ ∧ nbrptup ∈ {⊥, p} ∧ no query outstanding.
        if (
            lane.c is BOTTOM
            and lane.nbrptdown is BOTTOM
            and lane.nbrptup in (BOTTOM, lane.p)
            and lane.nbrtimeout.deadline > self.now + self._query_roundtrip()
        ):
            return self.internal_findquery, (lane.object_id,)
        return None

    def _find_forward_dest(self, lane) -> Optional[ClusterId]:
        """Destination satisfying the Fig. 2 find-forward precondition."""
        if lane.c not in (BOTTOM, self.clust):
            return lane.c  # tracing
        if lane.c is BOTTOM and lane.nbrptdown is not BOTTOM:
            return lane.nbrptdown
        if lane.c is BOTTOM and lane.nbrptdown is BOTTOM:
            if lane.nbrptup is not BOTTOM and lane.nbrptup != lane.p:
                return lane.nbrptup
            if lane is not self:
                # Extra lanes decide exactly once, when the wheel has
                # marked the roundtrip over: best recorded ack pointer,
                # else escalate (mirrors the lane-0 tie outcome below —
                # its timeout event also precedes same-instant acks).
                if not lane.timeout_due:
                    return None
                if lane.ackptr is not None and lane.ackptr != self.clust:
                    return lane.ackptr
            if lane.nbrtimeout.armed and lane.nbrtimeout.deadline <= self.now:
                if lane.nbrptup is BOTTOM:
                    return self.parent_cluster  # None at MAX: no forward
                return lane.nbrptup
        return None

    def _query_roundtrip(self) -> float:
        """Roundtrip neighbor communication time: ``2(δ+e)n(lvl)``."""
        return 2 * (self.delta + self.e) * self.hierarchy.params.n(self.lvl)

    # --- output effects ---------------------------------------------------
    def output_sendq_head(self) -> None:
        dest, message = self.sendq.pop(0)
        self._send(dest, message)

    def output_findAckq_head(self) -> None:
        dest, message = self.findAckq.pop(0)
        self._send(dest, message)

    def output_grow_send(self, object_id: int = 0) -> None:
        """cTOBsend(⟨grow, clust⟩, par): join the path and extend it."""
        lane = self.lane(object_id)
        lane.timer.disarm()
        if lane.nbrptup is not BOTTOM:
            par = lane.nbrptup
            lateral = True
        else:
            par = self.parent_cluster
            lateral = False
        assert par is not None, "grow timer armed at MAX level"
        lane.p = par
        self._send(par, Grow(cid=self.clust, object_id=object_id))
        update = GrowNbr if lateral else GrowPar
        self._queue_to_nbrs(update(cid=self.clust, object_id=object_id))
        if _OBS.events_enabled:
            _OBS.emit(
                GrowSent(
                    self.now, self.clust, self.lvl, par, lateral,
                    object_id=object_id,
                )
            )

    def output_shrink_send(self, object_id: int = 0) -> None:
        """cTOBsend(⟨shrink, clust⟩, p): leave the path, clean secondaries."""
        lane = self.lane(object_id)
        lane.timer.disarm()
        par = lane.p
        lane.p = BOTTOM
        self._send(par, Shrink(cid=self.clust, object_id=object_id))
        self._queue_to_nbrs(ShrinkUpd(cid=self.clust, object_id=object_id))
        if _OBS.events_enabled:
            _OBS.emit(
                ShrinkSent(self.now, self.clust, self.lvl, par, object_id=object_id)
            )

    def output_found_send(self, object_id: int = 0) -> None:
        """cTOBsend(⟨found, clust⟩, clust): announce at the evader's region."""
        lane = self.lane(object_id)
        found = Found(find_id=lane.find_id, object_id=object_id)
        self.cgcast.send_to_clients(self.clust, found)
        for nbr in self.nbr_clusters:
            self.sendq.append((nbr, found))
        lane.finding = False
        if _OBS.events_enabled:
            _OBS.emit(
                FoundAnnounced(self.now, self.clust, lane.find_id, object_id=object_id)
            )

    def output_find_forward(self, dest: ClusterId, object_id: int = 0) -> None:
        lane = self.lane(object_id)
        lane.finding = False
        self._send(dest, Find(cid=self.clust, find_id=lane.find_id, object_id=object_id))
        if _OBS.events_enabled:
            _OBS.emit(
                FindForwarded(self.now, self.clust, self.lvl, dest, object_id=object_id)
            )

    def internal_findquery(self, object_id: int = 0) -> None:
        lane = self.lane(object_id)
        self._arm_deadline(lane, "nbrtimeout", self.now + self._query_roundtrip())
        query = FindQuery(cid=self.clust, find_id=lane.find_id, object_id=object_id)
        self._queue_to_nbrs(query, exclude=lane.p)
        if _OBS.events_enabled:
            _OBS.emit(
                FindQueryIssued(
                    self.now, self.clust, self.lvl, lane.find_id,
                    object_id=object_id,
                )
            )

    # ------------------------------------------------------------------
    # Introspection for verification tooling
    # ------------------------------------------------------------------
    def pointer_state(self, object_id: int = 0) -> tuple:
        """``(c, p, nbrptup, nbrptdown)`` snapshot for one lane."""
        if object_id == 0:
            return (self.c, self.p, self.nbrptup, self.nbrptdown)
        lane = self._lanes.get(object_id)
        if lane is None:  # the common case of a fingerprint's object × tracker scan
            return (BOTTOM, BOTTOM, BOTTOM, BOTTOM)
        if lane.__class__ is ObjectLane:
            return (lane.c, lane.p, lane.nbrptup, lane.nbrptdown)
        return (BOTTOM, BOTTOM, *_secondary(lane))
