"""Self-stabilizing Tracker (§VII extension).

The paper sketches how VINESTALK becomes self-stabilizing: the original
STALK achieves stabilization "mainly through heartbeats", and every
building block (VSA emulation, geocast) is already self-stabilizing, so
the tracking layer needs the same heartbeat treatment.  This module
implements that sketch:

* **Path heartbeats.**  Every process on the path (``p ≠ ⊥``) sends a
  ``heartbeat`` to its path parent each period.  A process with
  ``c ≠ ⊥`` that misses ``miss_limit`` consecutive periods from its
  child concludes the child (or the channel) is corrupt, clears ``c``
  and behaves as if a shrink arrived — the stale branch below dissolves
  bottom-up exactly like ordinary deadwood.
* **Parent leases.**  Heartbeats are acknowledged (``heartbeatAck``).  A
  process whose parent stops acknowledging clears ``p`` (after notifying
  neighbors with the ordinary ``shrinkUpd``), so orphaned segments
  detach instead of absorbing finds forever.
* **Anchor refresh.**  The client co-located with the evader re-sends
  its ``grow`` every refresh period (the level-0 re-anchor of STALK).
  After arbitrary state corruption this is what rebuilds a correct path;
  the heartbeat machinery guarantees the corrupted remnants die.
* **Secondary-pointer leases.**  ``growPar``/``growNbr`` announcements
  are re-broadcast with each heartbeat round and neighbors expire
  secondary pointers that have not been refreshed recently, so stale
  ``nbrptup``/``nbrptdown`` values cannot mislead finds forever.

Fault containment mirrors STALK's: corruption at level ``l`` is
repaired by timers proportional to level-``l`` periods, without global
resets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..core.messages import Grow, GrowNbr, GrowPar, ShrinkUpd, TrackerMessage
from ..core.tracker import BOTTOM, Tracker
from ..hierarchy.cluster import ClusterId
from ..tioa.timers import Timer


@dataclass(frozen=True)
class Heartbeat(TrackerMessage):
    """Child ``cid`` tells its path parent it is alive and attached."""

    cid: ClusterId


@dataclass(frozen=True)
class HeartbeatAck(TrackerMessage):
    """Parent ``cid`` confirms it still holds the sender as child."""

    cid: ClusterId


@dataclass(frozen=True)
class StabilizationConfig:
    """Heartbeat tuning.

    Attributes:
        period_base: Heartbeat period at level 0; level ``l`` uses
            ``period_base * scale**l`` so high levels beat slower, giving
            STALK-style per-level fault containment.
        scale: Per-level period multiplier (the grid base is natural).
        miss_limit: Consecutive missed periods before a pointer is
            declared stale.
        refresh_periods: Client grow re-anchor interval, in level-0
            heartbeat periods.
    """

    period_base: float = 20.0
    scale: float = 2.0
    miss_limit: int = 3
    refresh_periods: int = 2

    def period(self, level: int) -> float:
        return self.period_base * self.scale**level

    def timeout(self, level: int) -> float:
        return self.period(level) * self.miss_limit


class StabilizingTracker(Tracker):
    """Tracker with heartbeat-based self-stabilization."""

    def __init__(self, hierarchy, clust, cgcast, schedule, delta, e,
                 stabilization: Optional[StabilizationConfig] = None) -> None:
        super().__init__(hierarchy, clust, cgcast, schedule, delta, e)
        self.config = stabilization if stabilization is not None else StabilizationConfig()
        self.hb_timer = Timer(self, "heartbeat")
        # Last time we heard a heartbeat from our child / an ack from
        # our parent / a secondary-pointer refresh from each neighbor.
        self.child_heard: Optional[float] = None
        self.parent_heard: Optional[float] = None
        self.nbrptup_heard: Optional[float] = None
        self.nbrptdown_heard: Optional[float] = None
        # Level-0 anchor lease: when the self-pointer was last confirmed
        # by a client grow (the evader is really here).
        self.anchor_heard: Optional[float] = None
        self.repairs = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start_heartbeats(self) -> None:
        """Arm the periodic heartbeat timer (call once after assembly)."""
        if not self.hb_timer.armed:
            self.hb_timer.arm(self.now + self.config.period(self.lvl))

    def reset_state(self) -> None:
        super().reset_state()
        self.hb_timer.disarm()
        self.child_heard = None
        self.parent_heard = None
        self.nbrptup_heard = None
        self.nbrptdown_heard = None
        self.anchor_heard = None

    def on_failed(self) -> None:
        super().on_failed()
        self.hb_timer.disarm()

    def on_restarted(self) -> None:
        self.start_heartbeats()

    # ------------------------------------------------------------------
    # Heartbeat round
    # ------------------------------------------------------------------
    def on_wakeup(self, tag: Optional[str] = None) -> None:
        if tag == "heartbeat":
            self._heartbeat_round()
            self.hb_timer.arm(self.now + self.config.period(self.lvl))

    def _heartbeat_round(self) -> None:
        timeout = self.config.timeout(self.lvl)
        self._local_type_repair()
        # 0. Anchor lease: a level-0 self-pointer must be refreshed by
        #    periodic client grows; a stale anchor dissolves like a shrink.
        if self.lvl == 0 and self.c == self.clust:
            if self.anchor_heard is not None and self.now - self.anchor_heard > timeout:
                self.trace("stabilize-drop-anchor", self.clust)
                self.repairs += 1
                self.c = BOTTOM
                self.anchor_heard = None
                if self.p is not BOTTOM:
                    self.timer.arm(self.now + self.schedule.s(self.lvl))
            elif self.anchor_heard is None:
                self.anchor_heard = self.now
        # 1. Beat upward and re-announce our connection type to neighbors.
        if self.p is not BOTTOM:
            self._send(self.p, Heartbeat(cid=self.clust))
            lateral = self.p in self.nbr_clusters
            update = GrowNbr(cid=self.clust) if lateral else GrowPar(cid=self.clust)
            self._queue_to_nbrs(update)
        # 2. Child liveness: a silent child is stale — drop it like a shrink.
        if self.c not in (BOTTOM, self.clust):
            if self.child_heard is not None and self.now - self.child_heard > timeout:
                self.trace("stabilize-drop-child", self.c)
                self.repairs += 1
                self.c = BOTTOM
                self.child_heard = None
                if self.lvl != self.max_level and self.p is not BOTTOM:
                    self.timer.arm(self.now + self.schedule.s(self.lvl))
            elif self.child_heard is None:
                # Start the lease on the first round that observes a child.
                self.child_heard = self.now
        # 3. Parent liveness: an unresponsive parent orphans us.  An
        #    orphan still carrying a live subtree re-grows upward (the
        #    grow timer re-arms exactly as for a fresh grow).
        if self.p is not BOTTOM:
            if self.parent_heard is not None and self.now - self.parent_heard > timeout:
                self.trace("stabilize-drop-parent", self.p)
                self.repairs += 1
                self.p = BOTTOM
                self.parent_heard = None
                self._queue_to_nbrs(ShrinkUpd(cid=self.clust))
                if self.c is not BOTTOM and self.lvl != self.max_level:
                    self.timer.arm(self.now + self.schedule.g(self.lvl))
            elif self.parent_heard is None:
                self.parent_heard = self.now
        # 4. Secondary-pointer leases.
        if self.nbrptup is not BOTTOM:
            if self.nbrptup_heard is not None and self.now - self.nbrptup_heard > timeout:
                self.trace("stabilize-expire-nbrptup", self.nbrptup)
                self.nbrptup = BOTTOM
                self.nbrptup_heard = None
            elif self.nbrptup_heard is None:
                self.nbrptup_heard = self.now
        if self.nbrptdown is not BOTTOM:
            if (
                self.nbrptdown_heard is not None
                and self.now - self.nbrptdown_heard > timeout
            ):
                self.trace("stabilize-expire-nbrptdown", self.nbrptdown)
                self.nbrptdown = BOTTOM
                self.nbrptdown_heard = None
            elif self.nbrptdown_heard is None:
                self.nbrptdown_heard = self.now

    def _local_type_repair(self) -> None:
        """Clear pointers violating the Fig. 2 state typing.

        After arbitrary corruption, pointers may hold values the state
        space forbids.  The key rule (path-segment condition 3a): a
        lateral-connected process (``p ∈ nbrs``) may only have a *child*
        (or self at level 0) as ``c`` — enforcing it locally breaks any
        same-level pointer cycle, which heartbeats alone would sustain.
        """
        h = self.hierarchy
        valid_p = set(self.nbr_clusters)
        if self.parent_cluster is not None:
            valid_p.add(self.parent_cluster)
        if self.p is not BOTTOM and self.p not in valid_p:
            self.trace("stabilize-type-p", self.p)
            self.repairs += 1
            self.p = BOTTOM
        children = set(h.children(self.clust))
        valid_c = children | set(self.nbr_clusters)
        if self.lvl == 0:
            valid_c.add(self.clust)
        if self.c is not BOTTOM and self.c not in valid_c:
            self.trace("stabilize-type-c", self.c)
            self.repairs += 1
            self.c = BOTTOM
        lateral = self.p is not BOTTOM and self.p in self.nbr_clusters
        if lateral and self.c is not BOTTOM and self.c not in children:
            if not (self.lvl == 0 and self.c == self.clust):
                self.trace("stabilize-type-lateral-c", self.c)
                self.repairs += 1
                self.c = BOTTOM
        for attr in ("nbrptup", "nbrptdown"):
            value = getattr(self, attr)
            if value is not BOTTOM and value not in self.nbr_clusters:
                self.trace(f"stabilize-type-{attr}", value)
                setattr(self, attr, BOTTOM)

    # ------------------------------------------------------------------
    # Heartbeat receipts
    # ------------------------------------------------------------------
    def _recv_heartbeat(self, message: Heartbeat, lane) -> None:
        if self.c == message.cid:
            self.child_heard = self.now
            self._send(message.cid, HeartbeatAck(cid=self.clust))
        # A heartbeat from a non-child is stale traffic; ignoring it lets
        # the sender's parent-lease expire and detach it.

    def _recv_heartbeatack(self, message: HeartbeatAck, lane) -> None:
        if self.p == message.cid:
            self.parent_heard = self.now

    # Secondary announcements double as leases.  The heartbeat machinery
    # stabilizes lane 0 (the paper's single-object protocol); extra
    # service lanes only pass through the super() effects.
    def _recv_growpar(self, message: GrowPar, lane) -> None:
        super()._recv_growpar(message, lane)
        if lane is self:
            self.nbrptup_heard = self.now

    def _recv_grownbr(self, message: GrowNbr, lane) -> None:
        super()._recv_grownbr(message, lane)
        if lane is self:
            self.nbrptdown_heard = self.now

    def _recv_grow(self, message: Grow, lane) -> None:
        super()._recv_grow(message, lane)
        if lane is self:
            self.child_heard = self.now
            if self.lvl == 0 and message.cid == self.clust:
                self.anchor_heard = self.now
