"""Timed I/O automaton base class.

Discrete transitions are methods; the analog clock ``now`` is provided
by the executor the automaton is attached to.  Subclasses implement:

* ``input_<name>(**payload)`` — effect of an input action,
* :meth:`enabled_outputs` — the locally controlled actions whose
  preconditions currently hold, in the order they should fire,
* ``output_<name>(**payload)`` / ``internal_<name>(**payload)`` — the
  effect of performing a locally controlled action.

The TIOA urgency convention ("trajectories stop when any precondition is
satisfied") is realised by the executor: after every input delivery or
timer wakeup it repeatedly performs enabled actions at the current time
until none remain.
"""

from __future__ import annotations

from typing import List, Optional

from .actions import Action, ActionKind


_INPUT = ActionKind.INPUT
_OUTPUT = ActionKind.OUTPUT


class AutomatonError(RuntimeError):
    """Protocol violation inside an automaton (bad dispatch, no executor)."""


class TimedAutomaton:
    """Base class for all timed automata in the system.

    Attributes:
        name: Unique name within one executor (used for routing).
        failed: Stopping-failure flag.  A failed automaton ignores inputs
            and enables no locally controlled actions until restarted.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.failed = False
        self._executor = None
        # Resolved handler caches: action name (inputs) or method name
        # (locally controlled actions) → bound method.  getattr with an
        # f-string key is hot; resolution happens once per name.
        self._input_handlers: dict = {}
        self._perform_handlers: dict = {}

    # ------------------------------------------------------------------
    # Executor binding
    # ------------------------------------------------------------------
    def attach(self, executor) -> None:
        self._executor = executor

    @property
    def executor(self):
        if self._executor is None:
            raise AutomatonError(f"automaton {self.name!r} is not attached")
        return self._executor

    @property
    def now(self) -> float:
        """Current (accurate) local clock, equal to real time."""
        executor = self._executor
        if executor is None:
            raise AutomatonError(f"automaton {self.name!r} is not attached")
        return executor.sim.now

    # ------------------------------------------------------------------
    # Failure model (stopping failures + restart, §II-C.1/2)
    # ------------------------------------------------------------------
    def fail(self) -> None:
        """Stopping failure: no further local steps until restart."""
        if not self.failed:
            self.failed = True
            self.on_failed()

    def restart(self) -> None:
        """Restart from an initial state."""
        if self.failed:
            self.failed = False
            self.reset_state()
            self.on_restarted()
            self.executor.kick(self)

    def reset_state(self) -> None:
        """Restore the initial state.  Subclasses with state must override."""

    def on_failed(self) -> None:
        """Hook called on failure (e.g. to cancel timers)."""

    def on_restarted(self) -> None:
        """Hook called after a restart."""

    # ------------------------------------------------------------------
    # Discrete transitions
    # ------------------------------------------------------------------
    def handle_input(self, action: Action) -> None:
        """Apply an input action's effect (no-op while failed)."""
        if self.failed:
            return
        if action.kind is not _INPUT:
            raise AutomatonError(f"{self.name!r}: {action!r} is not an input")
        handler = self._input_handlers.get(action.name)
        if handler is None:
            handler = getattr(self, f"input_{action.name}", None)
            if handler is None:
                raise AutomatonError(f"{self.name!r} has no handler for {action!r}")
            self._input_handlers[action.name] = handler
        handler(**dict(action.payload))

    def enabled_outputs(self) -> List[Action]:
        """Locally controlled actions whose preconditions hold right now.

        The executor performs the first returned action, re-queries, and
        repeats; returning them in precedence order makes executions
        deterministic.
        """
        return []

    def perform(self, action: Action) -> None:
        """Apply a locally controlled action's effect."""
        if self.failed:
            raise AutomatonError(f"{self.name!r} performed {action!r} while failed")
        # Keyed by method name: a str hashes in C, where an (ActionKind,
        # name) tuple key would hash the enum member in Python.
        method = ("output_" if action.kind is _OUTPUT else "internal_") + action.name
        handler = self._perform_handlers.get(method)
        if handler is None:
            handler = getattr(self, method, None)
            if handler is None:
                raise AutomatonError(f"{self.name!r} has no effect for {action!r}")
            self._perform_handlers[method] = handler
        if action.payload:
            handler(**dict(action.payload))
        else:
            handler()

    # ------------------------------------------------------------------
    # Timer wakeups
    # ------------------------------------------------------------------
    def on_wakeup(self, tag: Optional[str] = None) -> None:
        """Called at a time previously requested via ``Timer``/executor."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        status = " FAILED" if self.failed else ""
        return f"<{type(self).__name__} {self.name}{status}>"
