"""Discrete-event simulation substrate (engine, queue, RNG, trace, metrics)."""

from .engine import SimulationError, Simulator
from .event_queue import Event, EventQueue
from .metrics import Counter, MetricsRegistry
from .rng import RngRegistry, choice_excluding
from .trace import TraceLog, TraceRecord

__all__ = [
    "Counter",
    "Event",
    "EventQueue",
    "MetricsRegistry",
    "RngRegistry",
    "SimulationError",
    "Simulator",
    "TraceLog",
    "TraceRecord",
    "choice_excluding",
]
