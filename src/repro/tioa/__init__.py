"""Timed I/O Automata framework (Kaynar–Lynch–Segala–Vaandrager style)."""

from .actions import Action, ActionKind
from .automaton import AutomatonError, TimedAutomaton
from .executor import Executor
from .timers import INFINITY, Timer

__all__ = [
    "Action",
    "ActionKind",
    "AutomatonError",
    "Executor",
    "INFINITY",
    "TimedAutomaton",
    "Timer",
]
