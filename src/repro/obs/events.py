"""Typed structured trace events (schema-versioned dataclass records).

These are the trace of a run: the hot paths of
:mod:`repro.core.tracker`, :mod:`repro.geocast.cgcast`,
:mod:`repro.mobility.evader` and :mod:`repro.faults.injector` emit them
and nothing else.  Each event is a frozen dataclass with a class-level
``kind`` tag; :func:`event_dict` renders any event to a JSON-safe dict
stamped with :data:`OBS_EVENT_SCHEMA`.

Events are gated by ``OBS.events_enabled``, so enabling them never
perturbs a simulation and disabling them costs one boolean check per
site.  What a run *did* is fingerprinted without them, from its C-gcast
sends (:func:`repro.ckpt.run_fingerprint`).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, ClassVar, Dict, Tuple

#: Version stamp carried by every exported event dict.  Bump when any
#: event's fields change shape.
#: 2: path/find events gained a trailing ``object_id`` (DESIGN.md §9).
#: 3: new ``EvaderMoved`` mobility event (record/replay, DESIGN.md §10).
OBS_EVENT_SCHEMA = 3


@dataclass(frozen=True)
class GrowSent:
    """A Tracker sent ``⟨grow, clust⟩`` to its new parent (Fig. 2)."""

    kind: ClassVar[str] = "grow-sent"
    time: float
    cluster: Any
    level: int
    parent: Any
    lateral: bool
    object_id: int = 0


@dataclass(frozen=True)
class ShrinkSent:
    """A Tracker sent ``⟨shrink, clust⟩`` to its parent (Fig. 2)."""

    kind: ClassVar[str] = "shrink-sent"
    time: float
    cluster: Any
    level: int
    parent: Any
    object_id: int = 0


@dataclass(frozen=True)
class FoundAnnounced:
    """A level-0 Tracker announced ``found`` at the evader's region."""

    kind: ClassVar[str] = "found"
    time: float
    cluster: Any
    find_id: int
    object_id: int = 0


@dataclass(frozen=True)
class FindForwarded:
    """A Tracker forwarded a find along the path or a secondary pointer."""

    kind: ClassVar[str] = "find-forward"
    time: float
    cluster: Any
    level: int
    dest: Any
    object_id: int = 0


@dataclass(frozen=True)
class FindQueryIssued:
    """A Tracker queried its neighbors for the path (find search phase)."""

    kind: ClassVar[str] = "findquery"
    time: float
    cluster: Any
    level: int
    find_id: int
    object_id: int = 0


@dataclass(frozen=True)
class MessageDispatched:
    """C-gcast dispatched one message (after fault interposition).

    ``copies`` is the number of delivery copies actually scheduled:
    0 = dropped, 1 = normal, >1 = duplicated.
    """

    kind: ClassVar[str] = "message-dispatched"
    time: float
    src: Any
    dest: Any
    payload: str
    cost: float
    delay: float
    copies: int


@dataclass(frozen=True)
class FaultCrash:
    """The fault injector took a region's VSA down."""

    kind: ClassVar[str] = "fault-crash"
    time: float
    region: Any


@dataclass(frozen=True)
class FaultRestore:
    """The fault injector brought a region's VSA back up."""

    kind: ClassVar[str] = "fault-restore"
    time: float
    region: Any


@dataclass(frozen=True)
class MessagesPerturbed:
    """One message passed a fault rule chain and came out changed."""

    kind: ClassVar[str] = "messages-perturbed"
    time: float
    channel: str
    dropped: int
    duplicated: int
    delayed: int


@dataclass(frozen=True)
class ConformanceViolation:
    """The online conformance sampler caught an invariant violation."""

    kind: ClassVar[str] = "conformance-violation"
    time: float
    check: str
    detail: str


@dataclass(frozen=True)
class EvaderMoved:
    """An evader emitted ``move``/``left`` (the augmented GPS stream).

    ``region`` is the raw :data:`~repro.geometry.regions.RegionId`, so
    an in-process collector can rebuild an exact replayable trace from
    these events (``tests/mobility/test_record_replay.py`` does).
    """

    kind: ClassVar[str] = "evader-moved"
    time: float
    event: str
    region: Any
    object_id: int = 0


#: Every event type, for schema introspection and tests.
EVENT_TYPES: Tuple[type, ...] = (
    EvaderMoved,
    GrowSent,
    ShrinkSent,
    FoundAnnounced,
    FindForwarded,
    FindQueryIssued,
    MessageDispatched,
    FaultCrash,
    FaultRestore,
    MessagesPerturbed,
    ConformanceViolation,
)


def _jsonable(value: Any) -> Any:
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (tuple, list)):
        return [_jsonable(v) for v in value]
    return str(value)


def event_dict(event: Any) -> Dict[str, Any]:
    """Render an event as a JSON-safe dict with schema + kind stamps."""
    out: Dict[str, Any] = {"schema": OBS_EVENT_SCHEMA, "kind": event.kind}
    for f in fields(event):
        out[f.name] = _jsonable(getattr(event, f.name))
    return out
