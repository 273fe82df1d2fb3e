"""Timer helper for timed automata.

A :class:`Timer` models one real-valued deadline variable like the
``timer`` of Fig. 2: it can be armed to an absolute time, re-armed
(cancelling the previous deadline), disarmed, and read.  When the
deadline is reached the owning automaton's ``on_wakeup(tag)`` runs and
its enabled outputs drain, which is how ``now = timer`` preconditions
fire.
"""

from __future__ import annotations

import math
from .automaton import TimedAutomaton

INFINITY = math.inf


class Timer:
    """One deadline variable owned by an automaton.

    Attributes:
        deadline: Current deadline (``math.inf`` when disarmed).

    ``priority`` orders the wakeup against same-instant events: the
    default 0 keeps insertion order (a wakeup armed before a message
    was sent fires first on a tie), while 1 fires strictly after every
    same-instant priority-0 event regardless of when the timer was
    (re-)armed — the deterministic choice for timers that are re-armed
    on unrelated activity, like the tracker's shared lane wheel (see
    ``Tracker._rearm_wheel``).
    """

    __slots__ = ("_owner", "_tag", "_priority", "_event", "deadline")

    def __init__(self, owner: TimedAutomaton, tag: str, priority: int = 0) -> None:
        self._owner = owner
        self._tag = tag
        self._priority = priority
        self._event = None
        self.deadline: float = INFINITY

    @property
    def armed(self) -> bool:
        return self.deadline != INFINITY

    def arm(self, deadline: float) -> None:
        """Set the deadline, replacing any previous one (a past one changes nothing)."""
        now = self._owner.now
        if deadline < now:
            raise ValueError(f"timer {self._tag!r} deadline {deadline} is in the past (now={now})")
        self.disarm()
        self.deadline = deadline
        self._event = self._owner.executor.wake_at(
            self._owner, deadline, tag=self._tag, priority=self._priority
        )

    def disarm(self) -> None:
        """Clear the deadline (idempotent)."""
        if self._event is not None:
            self._owner.executor.sim.cancel(self._event)
            self._event = None
        self.deadline = INFINITY

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Timer({self._tag!r}, deadline={self.deadline})"
