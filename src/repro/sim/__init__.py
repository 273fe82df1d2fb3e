"""Discrete-event simulation substrate (engine, queue, RNG)."""

from .engine import SimulationError, Simulator
from .event_queue import Event, EventQueue
from .rng import RngRegistry

__all__ = [
    "Event",
    "EventQueue",
    "RngRegistry",
    "SimulationError",
    "Simulator",
]
