"""Executor: binds timed automata to the discrete-event simulator.

The executor realises TIOA semantics operationally:

* **Input delivery** — :meth:`deliver` schedules an input
  :class:`~repro.tioa.actions.Action` at the current time plus a delay;
  on firing, the effect runs and the automaton drains.  A channel that
  holds its receiver (C-gcast) calls the ``input_*`` effect itself and
  then :meth:`kick`, with no action envelope.
* **Urgency** — after any discrete step the automaton drains: its
  :meth:`~repro.tioa.automaton.TimedAutomaton.step` performs the first
  enabled locally controlled action, immediately (zero time), until it
  reports none; this is the "trajectories stop when any precondition is
  satisfied" clause of Fig. 2.
* **Wakeups** — :meth:`wake_at` schedules ``on_wakeup`` for timer-driven
  preconditions like ``now = timer``.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, Optional

from ..sim.engine import Simulator
from .actions import Action
from .automaton import AutomatonError, TimedAutomaton

_MAX_DRAIN_STEPS = 100_000


class Executor:
    """Runs a set of timed automata over one simulator."""

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self._automata: Dict[str, TimedAutomaton] = {}
        # Bound once, for the ``partial`` every scheduled event holds.
        self._input = self._input
        self._wakeup = self._wakeup

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(self, automaton: TimedAutomaton) -> TimedAutomaton:
        if automaton.name in self._automata:
            raise AutomatonError(f"duplicate automaton name {automaton.name!r}")
        self._automata[automaton.name] = automaton
        automaton.attach(self)
        return automaton

    # ------------------------------------------------------------------
    # Discrete execution
    # ------------------------------------------------------------------
    def deliver(
        self,
        target: TimedAutomaton,
        action: Action,
        delay: float = 0.0,
        priority: int = 0,
    ) -> list:
        """Schedule an input action at ``now + delay``."""
        fire = partial(self._input, target, action)
        return self.sim.call_after(delay, fire, priority=priority, tag=f"in:{target.name}")

    def wake_at(
        self,
        target: TimedAutomaton,
        time: float,
        tag: Optional[str] = None,
        priority: int = 0,
    ) -> list:
        """Schedule ``target.on_wakeup(tag)`` at absolute ``time``."""
        fire = partial(self._wakeup, target, tag)
        return self.sim.call_at(time, fire, priority=priority, tag=f"wake:{target.name}")

    def _input(self, target: TimedAutomaton, action: Action) -> None:
        if not target.failed:
            target.handle_input(action)
            self._drain(target)

    def _wakeup(self, target: TimedAutomaton, tag: Optional[str]) -> None:
        if not target.failed:
            target.on_wakeup(tag)
            self._drain(target)

    def kick(self, target: TimedAutomaton) -> None:
        """Drain: fire ``target``'s enabled actions until quiescent."""
        step = target.step
        for _ in range(_MAX_DRAIN_STEPS):
            if target.failed or not step():
                return
        raise AutomatonError(
            f"automaton {target.name!r} did not quiesce after "
            f"{_MAX_DRAIN_STEPS} locally controlled steps"
        )

    # The scheduled inputs and wakeups above drain through the same loop
    # by this name, so a tracer wrapping ``kick`` counts channel kicks only.
    _drain = kick
