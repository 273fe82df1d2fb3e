"""Discrete-event simulation substrate (engine, queue, RNG, metrics)."""

from .engine import SimulationError, Simulator
from .event_queue import Event, EventQueue
from .metrics import Counter, MetricsRegistry
from .rng import RngRegistry, choice_excluding

__all__ = [
    "Counter",
    "Event",
    "EventQueue",
    "MetricsRegistry",
    "RngRegistry",
    "SimulationError",
    "Simulator",
    "choice_excluding",
]
