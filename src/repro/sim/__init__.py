"""Discrete-event simulation substrate (engine, queue, RNG)."""

from .engine import SimulationError, Simulator
from .event_queue import EventQueue
from .rng import RngRegistry

__all__ = [
    "EventQueue",
    "RngRegistry",
    "SimulationError",
    "Simulator",
]
