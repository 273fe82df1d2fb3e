"""Online conformance sampling: the paper's proofs as runtime checks.

:class:`ConformanceSampler` is the one checker of Lemmas 4.1/4.2 and
Theorem 4.8: it runs them *during* any run, on a configurable
event-count stride (E3 runs it on every event), recording violations
as structured :class:`~repro.obs.events.ConformanceViolation` events
instead of failing the run.

Checks (each a pure read of simulation state — sampling never draws
from an RNG or schedules an event, so it cannot perturb the run):

* ``lemma-4.1-grow`` / ``lemma-4.1-shrink`` — at most one grow/shrink
  outstanding (:func:`grow_outstanding` / :func:`shrink_outstanding`):
  cluster-originated messages in transit plus processes with a pending
  timer, ``c ≠ ⊥ ∧ p = ⊥`` (grow) or ``c = ⊥ ∧ p ≠ ⊥`` (shrink), below
  MAX;
* ``lemma-4.2`` — at most one lateral grow per level per move epoch,
  fed by the typed :class:`~repro.obs.events.GrowSent` events (runs
  only while ``OBS.events_enabled`` routes them to a collector);
* ``theorem-4.8`` — ``lookAhead(state) == atomicMoveSeq(moves)``.  The
  atomic reference state is folded **incrementally**: one
  :func:`~repro.core.atomic_model.atomic_move` per observed evader
  move, so a check is O(world) for the snapshot + lookAhead and O(1)
  amortized for the reference — not O(moves) per check.  A strict-mode
  :class:`~repro.core.lookahead.LookAheadError` is itself recorded as a
  ``theorem-4.8`` violation event, never raised out of the event loop.

Striding: the sampler counts fired simulator events through
:meth:`Simulator.add_after_event` and checks every ``stride``-th event;
:meth:`detach` always runs one final check, so a strided sampler and an
every-event sampler judge the same final state.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..core.atomic_model import AtomicModelError, atomic_move, init_state
from ..core.lookahead import LookAheadError, look_ahead
from ..core.messages import Grow, Shrink
from ..core.state import capture_snapshot
from ..hierarchy.cluster import ClusterId
from ._state import OBS
from .events import ConformanceViolation, GrowSent

#: Check identifiers, in reporting order.
CHECKS = ("lemma-4.1-grow", "lemma-4.1-shrink", "lemma-4.2", "theorem-4.8")


def _outstanding(system, object_id: int, message_type: type, pending) -> int:
    in_transit = sum(
        1
        for src, _dest, payload, _t in system.cgcast.in_transit()
        if isinstance(payload, message_type)
        and isinstance(src, ClusterId)
        and getattr(payload, "object_id", 0) == object_id
    )
    max_level = system.hierarchy.max_level
    return in_transit + sum(
        1
        for tracker in system.trackers.values()
        if tracker.lvl != max_level and pending(*tracker.pointer_state(object_id))
    )


def grow_outstanding(system, object_id: int = 0) -> int:
    """Lane ``object_id``'s cluster grows in transit + pending-grow processes."""
    return _outstanding(
        system, object_id, Grow, lambda c, p, _up, _down: c is not None and p is None
    )


def shrink_outstanding(system, object_id: int = 0) -> int:
    """Lane ``object_id``'s cluster shrinks in transit + pending-shrink processes."""
    return _outstanding(
        system, object_id, Shrink, lambda c, p, _up, _down: c is None and p is not None
    )


class ConformanceSampler:
    """Strided online runner of the Lemma 4.1/4.2 / Theorem 4.8 checks.

    Args:
        system: A built VineStalk-like system (simulator + trackers).
        stride: Run the state checks every ``stride`` fired events
            (1 = every event).
        strict: Passed to :func:`look_ahead`; in strict mode a
            ``LookAheadError`` becomes a ``theorem-4.8`` violation.
        collector: Collector receiving violation events and the
            Lemma 4.2 GrowSent feed; defaults to the active one.
        max_recorded: Violation records kept on the sampler (counts
            stay exact past the cap).
        object_id: Which tracking lane the checks cover (DESIGN.md §9).
            Every lane is an independent instance of the §IV-C state
            space; attach one sampler per object to check them all.

    Lifecycle: :meth:`attach` installs the after-event hook and evader
    observer; :meth:`detach` runs a final check and removes both.  The
    Theorem 4.8 check needs the evader to exist (and have entered) at
    attach time; without one, only the lemma checks run.
    """

    def __init__(
        self,
        system: Any,
        stride: int = 256,
        strict: bool = True,
        collector: Optional[Any] = None,
        max_recorded: int = 64,
        object_id: int = 0,
    ) -> None:
        if stride < 1:
            raise ValueError("stride must be >= 1")
        self.system = system
        self.stride = int(stride)
        self.strict = strict
        self.object_id = object_id
        self.collector = collector if collector is not None else OBS.collector
        self.max_recorded = max_recorded
        self.checks_run: Dict[str, int] = {check: 0 for check in CHECKS}
        self.violation_counts: Dict[str, int] = {check: 0 for check in CHECKS}
        self.violations: List[ConformanceViolation] = []
        self.max_grow_outstanding = 0
        self.max_shrink_outstanding = 0
        self._hierarchy = system.hierarchy
        self._atomic = None  # incrementally folded atomicMoveSeq state
        self._epoch = 0
        self._lateral_counts: Dict[Tuple[int, int], int] = {}
        self._since = 0
        self._attached = False
        self._evader = None
        self._fed_by_collector = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def attach(self) -> "ConformanceSampler":
        """Install the event-stride hook, evader observer and event feed."""
        if self._attached:
            return self
        self._attached = True
        finder = getattr(self.system, "object_evader", None)
        evader = (
            finder(self.object_id) if finder is not None else self.system.evader
        )
        if evader is not None and evader.region is not None:
            self._evader = evader
            self._atomic = init_state(self._hierarchy, evader.region)
            evader.observe(self._on_evader)
        self.system.sim.add_after_event(self._after_event)
        if self.collector is not None and OBS.events_enabled:
            self.collector.subscribe(self._on_obs_event)
            self._fed_by_collector = True
        return self

    def detach(self) -> "ConformanceSampler":
        """Run one final check, then remove every hook."""
        if not self._attached:
            return self
        self.check_now()
        self._attached = False
        self.system.sim.remove_after_event(self._after_event)
        if self._evader is not None:
            self._evader.unobserve(self._on_evader)
            self._evader = None
        if self._fed_by_collector:
            self.collector.unsubscribe(self._on_obs_event)
            self._fed_by_collector = False
        return self

    # ------------------------------------------------------------------
    # Hooks
    # ------------------------------------------------------------------
    def _after_event(self) -> None:
        self._since += 1
        if self._since >= self.stride:
            self._since = 0
            self.check_now()

    def _on_evader(self, event: str, region) -> None:
        if event != "move":
            return
        self._epoch += 1
        if self._atomic is not None:
            try:
                self._atomic = atomic_move(self._hierarchy, self._atomic, region)
            except AtomicModelError as exc:
                self._atomic = init_state(self._hierarchy, region)
                self._violate("theorem-4.8", f"atomic model error: {exc}")

    def _on_obs_event(self, event: Any) -> None:
        # Lemma 4.2: a lateral grow at most once per level per move epoch
        # (per lane: other objects' grows belong to other samplers).
        if (
            type(event) is GrowSent
            and event.lateral
            and getattr(event, "object_id", 0) == self.object_id
        ):
            self.checks_run["lemma-4.2"] += 1
            key = (self._epoch, event.level)
            count = self._lateral_counts.get(key, 0) + 1
            self._lateral_counts[key] = count
            if count > 1:
                self._violate(
                    "lemma-4.2",
                    f"level {event.level} sent {count} lateral grows "
                    f"in move epoch {self._epoch}",
                )

    # ------------------------------------------------------------------
    # The checks
    # ------------------------------------------------------------------
    def check_now(self) -> None:
        """Run the Lemma 4.1 and Theorem 4.8 checks on the current state."""
        grow = grow_outstanding(self.system, self.object_id)
        shrink = shrink_outstanding(self.system, self.object_id)
        self.max_grow_outstanding = max(self.max_grow_outstanding, grow)
        self.max_shrink_outstanding = max(self.max_shrink_outstanding, shrink)
        self.checks_run["lemma-4.1-grow"] += 1
        self.checks_run["lemma-4.1-shrink"] += 1
        if grow > 1:
            self._violate("lemma-4.1-grow", f"{grow} grows outstanding")
        if shrink > 1:
            self._violate("lemma-4.1-shrink", f"{shrink} shrinks outstanding")
        if self._atomic is None:
            return
        self.checks_run["theorem-4.8"] += 1
        snapshot = capture_snapshot(self.system, object_id=self.object_id)
        try:
            future = look_ahead(snapshot, self._hierarchy, strict=self.strict)
        except LookAheadError as exc:
            self._violate("theorem-4.8", f"lookAhead error: {exc}")
            return
        if future.pointer_map() != self._atomic.pointer_map():
            self._violate("theorem-4.8", "lookAhead(state) != atomicMoveSeq(moves)")

    def _violate(self, check: str, detail: str) -> None:
        self.violation_counts[check] += 1
        event = ConformanceViolation(
            time=self.system.sim.now, check=check, detail=detail
        )
        if len(self.violations) < self.max_recorded:
            self.violations.append(event)
        collector = self.collector
        if collector is not None:
            collector.emit(event)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def verdicts(self) -> Dict[str, bool]:
        """check -> True when at least one violation was recorded."""
        return {check: self.violation_counts[check] > 0 for check in CHECKS}

    def total_violations(self) -> int:
        return sum(self.violation_counts.values())

    def summary(self) -> Dict[str, Any]:
        """JSON-safe summary for the obs artifact."""
        return {
            "stride": self.stride,
            "strict": self.strict,
            "object_id": self.object_id,
            "checks_run": dict(self.checks_run),
            "violation_counts": dict(self.violation_counts),
            "violations_total": self.total_violations(),
            "verdicts": self.verdicts(),
            "max_grow_outstanding": self.max_grow_outstanding,
            "max_shrink_outstanding": self.max_shrink_outstanding,
            "recorded": [
                {"time": v.time, "check": v.check, "detail": v.detail}
                for v in self.violations
            ],
        }
