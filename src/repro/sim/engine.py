"""Discrete-event simulation engine.

The :class:`Simulator` advances a virtual clock through an
:class:`~repro.sim.event_queue.EventQueue`.  All timing in the
reproduction (message delays, VSA timers, mobility dwell times) is
expressed as events on a single simulator, which keeps executions fully
deterministic and replayable.

Typical use::

    sim = Simulator()
    sim.call_at(3.0, lambda: print("hello at t=3"))
    sim.run_until(10.0)
"""

from __future__ import annotations

import gc
from typing import Any, Callable, List, Optional

from .event_queue import Event, EventQueue

#: Process-wide count of events fired by every Simulator instance.  The
#: parallel sweep runner samples this around a job to compute events/sec
#: (each worker process has its own counter, so jobs never interfere).
_EVENTS_FIRED_TOTAL = 0


def events_fired_total() -> int:
    """Total events fired by all simulators in this process."""
    return _EVENTS_FIRED_TOTAL


class SimulationError(RuntimeError):
    """Raised for illegal scheduling requests (e.g., scheduling in the past)."""


class Simulator:
    """Single-clock discrete-event simulator.

    Attributes:
        now: Current simulation time.  Starts at 0.0.
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        self._queue = EventQueue()
        self._events_fired = 0
        #: True while an event callback runs (``run*`` or ``step``).
        self.running = False
        self._stop_requested = False
        # After-event hooks (obs conformance sampling).  None — the
        # overwhelmingly common case — costs one identity check per
        # fired event on the fast lane.
        self._after_event: Optional[List[Callable[[], None]]] = None
        self._loop_exit: List[Callable[[], None]] = []  # see add_loop_exit

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def call_at(
        self,
        time: float,
        fn: Callable[[], Any],
        priority: int = 0,
        tag: Optional[str] = None,
    ) -> Event:
        """Schedule ``fn`` at absolute time ``time``.

        Raises:
            SimulationError: if ``time`` lies in the past.
        """
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at t={time} before now={self.now} (tag={tag!r})"
            )
        return self._queue.push(time, fn, priority=priority, tag=tag)

    def call_after(
        self,
        delay: float,
        fn: Callable[[], Any],
        priority: int = 0,
        tag: Optional[str] = None,
    ) -> Event:
        """Schedule ``fn`` after a non-negative ``delay`` from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay} (tag={tag!r})")
        return self._queue.push(self.now + delay, fn, priority=priority, tag=tag)

    def cancel(self, event: Event) -> None:
        self._queue.cancel(event)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    @property
    def pending_events(self) -> int:
        return len(self._queue)

    @property
    def events_fired(self) -> int:
        return self._events_fired

    def stop(self) -> None:
        """Request that the currently running loop stop after this event."""
        self._stop_requested = True

    def add_after_event(self, fn: Callable[[], None]) -> Callable[[], None]:
        """Call ``fn()`` after every fired event (sampling hooks).

        The running loop binds the hook list at entry, so a hook
        installed mid-run takes effect at the next ``run``/``step``
        call.  Hooks must not perturb the simulation (no scheduling, no
        RNG draws) — they are for observation only.
        """
        if self._after_event is None:
            self._after_event = []
        self._after_event.append(fn)
        return fn

    def remove_after_event(self, fn: Callable[[], None]) -> None:
        """Remove an after-event hook (no-op when absent)."""
        hooks = self._after_event
        if hooks is None:
            return
        try:
            hooks.remove(fn)
        except ValueError:
            return
        if not hooks:
            self._after_event = None

    def add_loop_exit(self, fn: Callable[[], None]) -> None:
        """Call ``fn()`` whenever the event loop returns control.

        That is at the end of every ``run*``/``step`` call, also when an
        event raised: work deferred during events (C-gcast's pending
        send records) is settled before anything outside one can look.
        """
        self._loop_exit.append(fn)

    def step(self, until: Optional[float] = None) -> bool:
        """Fire the single earliest event.  Returns False if none remain.

        With ``until`` given, an event beyond that time is left in the
        queue and False is returned — the bounded single-step the replay
        recorder uses to interleave per-event observation with normal
        execution.
        """
        return self._loop(until=until, max_events=1) == 1

    # ------------------------------------------------------------------
    # Snapshot / restore (repro.ckpt engine hook)
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Capture the simulator's own state as plain data.

        Covers the clock, the fired-event counter and the full event
        queue (via :meth:`EventQueue.snapshot`).  Callbacks are held by
        reference — making the capture portable across processes is the
        :mod:`repro.ckpt` codec's job.  Refuses to run mid-event: a
        snapshot is only meaningful on the inter-event boundary.

        Raises:
            SimulationError: when called from inside a running loop.
        """
        if self.running:
            raise SimulationError("cannot snapshot while the loop is running")
        return {
            "now": self.now,
            "events_fired": self._events_fired,
            "queue": self._queue.snapshot(),
        }

    def restore(self, state: dict) -> None:
        """Reinstate a :meth:`snapshot` capture onto this simulator.

        Raises:
            SimulationError: when called from inside a running loop.
        """
        if self.running:
            raise SimulationError("cannot restore while the loop is running")
        self.now = state["now"]
        self._events_fired = state["events_fired"]
        self._stop_requested = False
        self._queue.restore(state["queue"])

    def run(self, max_events: Optional[int] = None) -> int:
        """Run until the queue drains (or ``max_events`` fire).

        Returns:
            Number of events fired by this call.
        """
        return self._loop(until=None, max_events=max_events)

    def run_until(self, until: float, max_events: Optional[int] = None) -> int:
        """Run events with ``time <= until`` and advance the clock to ``until``.

        Returns:
            Number of events fired by this call.
        """
        fired = self._loop(until=until, max_events=max_events)
        if not self._stop_requested and self.now < until:
            self.now = until
        return fired

    def run_window(self, until: float) -> int:
        """Run events with ``time < until`` (strictly) and advance to ``until``.

        The bounded window step of the sharded PDES driver: with
        conservative lookahead δ, a message sent during the window
        ``[now, until)`` is delivered no earlier than ``until``, so an
        event at exactly the barrier may be a cross-shard injection and
        must wait for the exchange.  After the call the clock sits at
        the barrier, making ``call_at(until, ...)`` legal for injected
        messages.

        Returns:
            Number of events fired by this call.
        """
        fired = self._loop(until=until, max_events=None, strict=True)
        if not self._stop_requested and self.now < until:
            self.now = until
        return fired

    def next_event_time(self) -> Optional[float]:
        """Time of the earliest pending event, or ``None`` when drained."""
        return self._queue.peek_time()

    def _loop(
        self,
        until: Optional[float],
        max_events: Optional[int],
        strict: bool = False,
    ) -> int:
        """Fast-lane event loop.

        Each iteration does a single fused pop (one cancelled-entry sweep
        per fired event, versus the ``peek_time()`` + ``pop()`` pair that
        each re-scanned the heap head).  Hot attribute loads are bound to
        locals; the firing order is bit-for-bit the ``(time, priority,
        seq)`` order of the queue, exactly as before.
        """
        global _EVENTS_FIRED_TOTAL
        if self.running:
            raise SimulationError("Simulator.run is not reentrant")
        self.running = True
        self._stop_requested = False
        fired = 0
        pop_next_before = self._queue.pop_next_before
        hooks = self._after_event
        # The loop allocates heavily (messages, closures, send records)
        # but creates no reference cycles, so the generational collector
        # finds nothing — yet its gen-2 passes scan the *entire* live
        # graph, which grows with the tracked-object count M.  That is
        # an O(M) tax per batch of allocations and the dominant
        # M-dependent per-event cost at M=10k (DESIGN.md §9.5).  Pause
        # automatic collection for the loop's duration; refcounting
        # still frees everything the loop drops.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            while True:
                if max_events is not None and fired >= max_events:
                    break
                event = pop_next_before(until, strict)
                if event is None:
                    break
                if event.time < self.now:  # pragma: no cover - defensive
                    raise SimulationError(
                        "event queue produced an event in the past"
                    )
                self.now = event.time
                self._events_fired += 1
                fired += 1
                event.fn()
                if hooks is not None:
                    for hook in hooks:
                        hook()
                if self._stop_requested:
                    break
        finally:
            self.running = False
            _EVENTS_FIRED_TOTAL += fired
            if gc_was_enabled:
                gc.enable()
            for hook in self._loop_exit:
                hook()
        return fired
