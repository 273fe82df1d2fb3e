"""Multi-object tracking and pursuit coordination (§VII extension)."""

from .command_center import CommandCenter, Sighting
from .game import GameResult, Pursuer, PursuitGame

__all__ = [
    "CommandCenter",
    "GameResult",
    "Pursuer",
    "PursuitGame",
    "Sighting",
]
