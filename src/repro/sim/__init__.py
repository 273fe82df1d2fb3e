"""Discrete-event simulation substrate (engine, queue, RNG)."""

from .engine import SimulationError, Simulator
from .event_queue import Event, EventQueue
from .rng import RngRegistry, choice_excluding

__all__ = [
    "Event",
    "EventQueue",
    "RngRegistry",
    "SimulationError",
    "Simulator",
    "choice_excluding",
]
