"""Predictive tracker: pre-configure VSAs along forecast future states.

Virtual Network Configuration (arXiv cs/9905006) speeds a mobile
network's handoff by configuring state along the device's *predicted*
trajectory ahead of time, accepting that wrong predictions waste the
pre-configuration work.  The VINESTALK analogue: when the evader moves,
forecast its next region by linear extrapolation over the recent trace
history and send a :class:`~repro.core.messages.Prewarm` to the cluster
that would become the new path parent — the level-1 parent of the
predicted region's level-0 cluster, the tracker whose grow-timer delay
``g(lvl)`` gates path repair after a real move.  A fresh prewarm lets
that tracker arm its grow timer at *zero* delay when the real ``grow``
lands, shaving the repair window (and with it find latency over a
moving evader); a stale or wrong prewarm is counted as wasted work.

Accounting invariants (pinned by the property suite):

* every *received* prewarm resolves exactly once — ``correct`` when a
  grow consumes it fresh, ``wasted`` when overwritten by a newer
  prewarm or still unresolved at summary time — so
  ``received == correct + wasted``;
* without message faults ``sent == received``;
* all counters are incremented at single-shard points (dispatch in the
  sender's owner shard, receipt in the deliverer's), so per-shard
  summaries sum exactly under sharding, like the work counters.

Prewarms are *advisory*: they carry no Fig. 2 state, are classified as
``other`` work by the accountant, never count as handovers (only
``Grow`` dispatches do), and may be throttled by an
:class:`~repro.energy.AdaptiveRatePolicy` under budget pressure —
mandatory grow/shrink/find traffic always flows.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from ...core.messages import Grow, Prewarm
from ...core.tracker import BOTTOM, Tracker
from ...core.vinestalk import VineStalk
from ...geometry.regions import RegionId


class PredictiveTracker(Tracker):
    """Tracker that honours fresh prewarms by zeroing the grow delay."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # object_id -> expiry time of the latest unresolved prewarm.
        self._prewarmed: Dict[int, float] = {}
        self.preconfig_received = 0
        self.preconfig_correct = 0
        self.preconfig_wasted = 0

    def _recv_prewarm(self, message: Prewarm, lane) -> None:
        oid = message.object_id
        prewarmed = self._prewarmed
        if oid in prewarmed:
            # The older speculation was never consumed: wasted.
            self.preconfig_wasted += 1
        prewarmed[oid] = message.expiry
        self.preconfig_received += 1

    def _recv_grow(self, message: Grow, lane) -> None:
        """Grow receipt honouring a fresh prewarm (zero grow delay)."""
        was_bottom = lane.c is BOTTOM
        lane.c = message.cid
        if was_bottom and lane.p is BOTTOM and self.lvl != self.max_level:
            oid = getattr(message, "object_id", 0)
            prewarmed = self._prewarmed
            expiry = prewarmed.get(oid) if prewarmed else None
            if expiry is not None and expiry >= self.now:
                del prewarmed[oid]
                self.preconfig_correct += 1
                # Pre-configured: the VSA state is already staged, so
                # the grow fires at the next drain instead of after
                # g(lvl).  Arming at == now is legal (and deterministic:
                # the receipt and the drain share the event).
                self._arm_deadline(lane, "timer", self.now)
            else:
                self._arm_deadline(lane, "timer", self.now + self.schedule.g(self.lvl))

    def preconfig_unresolved(self) -> int:
        """Prewarms received but neither consumed nor overwritten yet."""
        return len(self._prewarmed) if self._prewarmed else 0


class PredictiveVineStalk(VineStalk):
    """VINESTALK with trace-history prediction and VSA pre-configuration.

    Builds via the ``"predictive"`` :class:`~repro.scenario.
    ScenarioConfig` registry key; identical to the classic system except
    for the advisory prewarm traffic and the zero-delay grow arming at
    prewarmed trackers.
    """

    tracker_cls = PredictiveTracker

    #: Sim-time freshness window of a prewarm.  Generous relative to the
    #: grid schedule's g(0) so a correct prediction is still fresh when
    #: the real grow (sent after the evader actually moves) arrives.
    prewarm_ttl = 60.0
    #: Trace-history window per object for the forecaster.
    history_window = 4

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # object_id -> recent regions, newest last.
        self._history: Dict[int, List[RegionId]] = {}
        self.preconfig_sent = 0
        self.preconfig_suppressed = 0
        #: Optional AdaptiveRatePolicy gating prewarm dispatch.
        self.rate_policy = None

    def attach_energy(self, ledger) -> None:
        """Install the budget-pressure throttle over prewarm traffic."""
        from ...energy.policy import AdaptiveRatePolicy

        self.rate_policy = AdaptiveRatePolicy(ledger)

    # ------------------------------------------------------------------
    # Forecasting
    # ------------------------------------------------------------------
    def _predict_next(self, object_id: int) -> Optional[RegionId]:
        """Linear extrapolation of the last observed step, grid-clamped."""
        history = self._history.get(object_id)
        if history is None or len(history) < 2:
            return None
        prev, cur = history[-2], history[-1]
        tiling = self.hierarchy.tiling
        col = min(max(0, 2 * cur[0] - prev[0]), tiling.width - 1)
        row = min(max(0, 2 * cur[1] - prev[1]), tiling.height - 1)
        predicted = (col, row)
        if predicted == cur:
            return None  # clamped into staying put: nothing to prewarm
        return predicted

    def _evader_event(
        self, event: str, region: RegionId, object_id: int = 0
    ) -> None:
        super()._evader_event(event, region, object_id)
        if event != "move":
            return
        trail = self._history.setdefault(object_id, [])
        trail.append(region)
        if len(trail) > self.history_window:
            del trail[0]
        # The evader replica moves in every shard; only the owner of the
        # *current* region dispatches the prewarm (exactly-once).
        if self.client_filter is not None and not self.client_filter(region):
            return
        predicted = self._predict_next(object_id)
        if predicted is None:
            return
        parent = self.hierarchy.parent(self.hierarchy.cluster(predicted, 0))
        if parent is None:
            return
        policy = self.rate_policy
        if policy is not None and not policy.allow():
            self.preconfig_suppressed += 1
            return
        src = self.hierarchy.cluster(region, 0)
        self.cgcast.send_vsa(
            src,
            parent,
            Prewarm(
                cid=self.hierarchy.cluster(predicted, 0),
                expiry=self.sim.now + self.prewarm_ttl,
                object_id=object_id,
            ),
        )
        self.preconfig_sent += 1

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def preconfig_summary(self) -> Dict[str, Any]:
        """Shard-sum-exact pre-configuration counters.

        ``wasted`` folds in prewarms still unresolved at summary time
        (speculation that never paid off), preserving
        ``received == correct + wasted``.  Does not mutate state.
        """
        received = correct = wasted = unresolved = 0
        for tracker in self.trackers.built.values():  # unbuilt ones got nothing
            received += tracker.preconfig_received
            correct += tracker.preconfig_correct
            wasted += tracker.preconfig_wasted
            unresolved += tracker.preconfig_unresolved()
        return {
            "sent": self.preconfig_sent,
            "suppressed": self.preconfig_suppressed,
            "received": received,
            "correct": correct,
            "wasted": wasted + unresolved,
        }
