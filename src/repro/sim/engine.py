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
from contextlib import contextmanager
from typing import Any, Callable, List, Optional

from .event_queue import FN, TIME, EventQueue

#: Process-wide count of events fired by every Simulator instance.  The
#: parallel sweep runner samples this around a job to compute events/sec
#: (each worker process has its own counter, so jobs never interfere).
_EVENTS_FIRED_TOTAL = 0


def events_fired_total() -> int:
    """Total events fired by all simulators in this process."""
    return _EVENTS_FIRED_TOTAL


@contextmanager
def gc_paused(collect: bool = False, freeze: bool = False):
    """The one GC policy: builds and runs pause the cyclic collector
    (DESIGN.md §9.5).  On exit, raised or not, ``collect`` frees the
    block's cycles, ``freeze`` exempts the survivors from later passes,
    and the prior state returns, so only the outermost pause re-enables.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if collect:
            gc.collect()
        if freeze:
            gc.freeze()
        if was_enabled:
            gc.enable()


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
    ) -> list:
        """Schedule ``fn`` at absolute time ``time``; returns the cancellable entry.

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
    ) -> list:
        """Schedule ``fn`` after a non-negative ``delay`` from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay} (tag={tag!r})")
        return self._queue.push(self.now + delay, fn, priority=priority, tag=tag)

    def cancel(self, entry: list) -> None:
        self._queue.cancel(entry)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
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
        queue and False is returned — the bounded single-step the
        bisector's lockstep scan uses to compare two runs event by event.
        """
        return self._loop(until=until, max_events=1) == 1

    def run(self, max_events: Optional[int] = None) -> int:
        """Run until the queue drains (or ``max_events`` fire).

        Returns:
            Number of events fired by this call.
        """
        return self._loop(until=None, max_events=max_events)

    def run_until(self, until: float, max_events: Optional[int] = None) -> int:
        """Run events with ``time <= until`` and advance the clock to ``until``.

        When ``max_events`` stops the run with an event at or before
        ``until`` still pending, the clock stays at the last fired event:
        moving it on would put that event in the past.

        Returns:
            Number of events fired by this call.
        """
        fired = self._loop(until=until, max_events=max_events)
        if not self._stop_requested and self.now < until:
            pending = self._queue.peek_time()
            if pending is None or pending > until:
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
        try:
            with gc_paused():
                while True:
                    if max_events is not None and fired >= max_events:
                        break
                    entry = pop_next_before(until, strict)
                    if entry is None:
                        break
                    time = entry[TIME]
                    if time < self.now:  # pragma: no cover - defensive
                        raise SimulationError(
                            "event queue produced an event in the past"
                        )
                    self.now = time
                    self._events_fired += 1
                    fired += 1
                    entry[FN]()
                    if hooks is not None:
                        for hook in hooks:
                            hook()
                    if self._stop_requested:
                        break
        finally:
            self.running = False
            _EVENTS_FIRED_TOTAL += fired
            for hook in self._loop_exit:
                hook()
        return fired
