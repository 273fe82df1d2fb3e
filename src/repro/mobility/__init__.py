"""Evader mobility: models, the mobile object, speed restrictions (§III, §VI)."""

from .evader import Evader, EvaderObserver
from .models import (
    BoundaryOscillator,
    FixedPath,
    MobilityModel,
    RandomNeighborWalk,
    worst_boundary_pair,
)
from .speed import atomic_dwell, concurrent_dwell, level_update_time

__all__ = [
    "BoundaryOscillator",
    "Evader",
    "EvaderObserver",
    "FixedPath",
    "MobilityModel",
    "RandomNeighborWalk",
    "atomic_dwell",
    "concurrent_dwell",
    "level_update_time",
    "worst_boundary_pair",
]
