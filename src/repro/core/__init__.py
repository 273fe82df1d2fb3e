"""VINESTALK core: Tracker, client algorithm, verification machinery (§III–§VI)."""

from .atomic_model import (
    AtomicModelError,
    atomic_move,
    atomic_move_seq,
    init_state,
)
from .client_tracking import TrackingClient
from .consistency import check_consistent
from .emulated import EmulatedVineStalk
from .finds import FindCoordinator, FindRecord
from .lookahead import LookAheadError, look_ahead
from .messages import (
    Find,
    FindAck,
    FindQuery,
    Found,
    Grow,
    GrowNbr,
    GrowPar,
    Shrink,
    ShrinkUpd,
    TrackerMessage,
    is_find_message,
    is_move_message,
)
from .path import (
    check_path_segment,
    check_tracking_path,
    extract_path,
)
from .state import PointerState, SystemSnapshot, TransitMessage, capture_snapshot
from .timers import TimerSchedule, TimerScheduleError, grid_schedule, uniform_schedule
from .tracker import Tracker
from .vinestalk import VineStalk

__all__ = [
    "AtomicModelError",
    "EmulatedVineStalk",
    "Find",
    "FindAck",
    "FindCoordinator",
    "FindQuery",
    "FindRecord",
    "Found",
    "Grow",
    "GrowNbr",
    "GrowPar",
    "LookAheadError",
    "PointerState",
    "Shrink",
    "ShrinkUpd",
    "SystemSnapshot",
    "TimerSchedule",
    "TimerScheduleError",
    "Tracker",
    "TrackerMessage",
    "TrackingClient",
    "TransitMessage",
    "VineStalk",
    "atomic_move",
    "atomic_move_seq",
    "capture_snapshot",
    "check_consistent",
    "check_path_segment",
    "check_tracking_path",
    "extract_path",
    "grid_schedule",
    "init_state",
    "is_find_message",
    "is_move_message",
    "look_ahead",
    "uniform_schedule",
]
