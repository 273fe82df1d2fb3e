"""Executor: binds timed automata to the discrete-event simulator.

The executor realises TIOA semantics operationally:

* **Input delivery** — :meth:`deliver` schedules an input action at the
  current time plus a delay; on firing, the effect runs and the
  automaton's enabled outputs drain.
* **Urgency** — after any discrete step, all enabled locally controlled
  actions fire immediately (zero time), in the order the automaton
  reports them; this is the "trajectories stop when any precondition is
  satisfied" clause of Fig. 2.
* **Output routing** — subscribers registered with :meth:`on_output`
  observe every performed output (communication services use this to
  pick up ``cTOBsend`` actions).
* **Wakeups** — :meth:`wake_at` schedules ``on_wakeup`` for timer-driven
  preconditions like ``now = timer``.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..sim.engine import Simulator
from ..sim.event_queue import Event
from .actions import Action
from .automaton import AutomatonError, TimedAutomaton

# An output subscriber receives (automaton, action).
OutputSubscriber = Callable[[TimedAutomaton, Action], None]

_MAX_DRAIN_STEPS = 100_000


class Executor:
    """Runs a set of timed automata over one simulator."""

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self._automata: Dict[str, TimedAutomaton] = {}
        self._subscribers: List[OutputSubscriber] = []

    # ------------------------------------------------------------------
    # Registration and lookup
    # ------------------------------------------------------------------
    def register(self, automaton: TimedAutomaton) -> TimedAutomaton:
        if automaton.name in self._automata:
            raise AutomatonError(f"duplicate automaton name {automaton.name!r}")
        self._automata[automaton.name] = automaton
        automaton.attach(self)
        return automaton

    def automaton(self, name: str) -> TimedAutomaton:
        try:
            return self._automata[name]
        except KeyError:
            raise AutomatonError(f"unknown automaton {name!r}") from None

    def automata(self) -> List[TimedAutomaton]:
        return [self._automata[k] for k in sorted(self._automata)]

    @property
    def now(self) -> float:
        return self.sim.now

    # ------------------------------------------------------------------
    # Output observation
    # ------------------------------------------------------------------
    def on_output(self, subscriber: OutputSubscriber) -> None:
        """Observe every performed output action (used by channels)."""
        self._subscribers.append(subscriber)

    # ------------------------------------------------------------------
    # Discrete execution
    # ------------------------------------------------------------------
    def deliver(
        self,
        target: TimedAutomaton,
        action: Action,
        delay: float = 0.0,
        priority: int = 0,
    ) -> Event:
        """Schedule an input action at ``now + delay``."""

        def fire() -> None:
            if target.failed:
                return
            target.handle_input(action)
            self._drain(target)

        return self.sim.call_after(delay, fire, priority=priority, tag=f"in:{target.name}")

    def wake_at(
        self,
        target: TimedAutomaton,
        time: float,
        tag: Optional[str] = None,
        priority: int = 0,
    ) -> Event:
        """Schedule ``target.on_wakeup(tag)`` at absolute ``time``."""

        def fire() -> None:
            if target.failed:
                return
            target.on_wakeup(tag)
            self._drain(target)

        return self.sim.call_at(time, fire, priority=priority, tag=f"wake:{target.name}")

    def kick(self, target: TimedAutomaton) -> None:
        """Drain any already-enabled actions of ``target`` right now."""
        self._drain(target)

    def _drain(self, automaton: TimedAutomaton) -> None:
        """Fire enabled locally controlled actions until quiescent."""
        subscribers = self._subscribers
        enabled_outputs = automaton.enabled_outputs
        perform = automaton.perform
        for _ in range(_MAX_DRAIN_STEPS):
            if automaton.failed:
                return
            enabled = enabled_outputs()
            if not enabled:
                return
            action = enabled[0]
            perform(action)
            for subscriber in subscribers:
                subscriber(automaton, action)
        raise AutomatonError(
            f"automaton {automaton.name!r} did not quiesce after "
            f"{_MAX_DRAIN_STEPS} locally controlled steps"
        )
