"""Tracker messages (Fig. 2 signature).

All messages are ``⟨kind, v⟩`` pairs where ``v`` is a cluster id: the
sender's cluster for most kinds, the forwarded pointer for ``findAck``.
Find-phase messages additionally carry a ``find_id`` — a bookkeeping tag
used by the experiment harness to attribute work and latency to
individual find operations; it does not influence the algorithm
(DESIGN.md §3).

Every message also carries an ``object_id`` selecting which of the
hierarchy's independent tracking paths it belongs to (DESIGN.md §9).
The default ``0`` is the single-evader lane of the original paper.

Messages are ``slots=True`` dataclasses: the dispatch path allocates
one per send and they live in queues, event closures and checkpoint
payloads by the hundred thousand at M=10k, so the per-instance dict is
worth dropping.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, Optional, Tuple

from ..hierarchy.cluster import ClusterId

#: Field-name tuples by concrete message class: ``__repr__`` runs once
#: per send on the send-fold path, and ``dataclasses.fields`` re-resolves
#: the class metadata on every call.
_REPR_FIELDS: Dict[type, Tuple[str, ...]] = {}


@dataclass(frozen=True, slots=True)
class TrackerMessage:
    """Base class of all tracking-protocol messages."""

    _kind = "trackermessage"

    def __init_subclass__(cls, **kwargs) -> None:
        # No zero-arg super() here: ``slots=True`` rebuilds the class,
        # which orphans the implicit ``__class__`` cell.  The base is
        # ``object``, so there is nothing to forward to anyway.
        cls._kind = cls.__name__.lower()

    @property
    def kind(self) -> str:
        return self._kind

    def __repr__(self) -> str:
        # ``object_id=0`` (the single-evader lane of the original
        # paper) renders in the legacy pre-service form: send lines
        # and their pinned fingerprints are built from these reprs, and
        # lane-0 runs must stay bit-identical to the seed engine.
        cls = type(self)
        names = _REPR_FIELDS.get(cls)
        if names is None:
            names = tuple(f.name for f in fields(self))
            _REPR_FIELDS[cls] = names
        parts = []
        for name in names:
            value = getattr(self, name)
            if name == "object_id" and value == 0:
                continue
            parts.append(f"{name}={value!r}")
        return f"{cls.__name__}({', '.join(parts)})"


@dataclass(frozen=True, repr=False, slots=True)
class Grow(TrackerMessage):
    """Extend the tracking path: ``cid`` is the sender (new child)."""

    cid: ClusterId
    object_id: int = 0


@dataclass(frozen=True, repr=False, slots=True)
class GrowNbr(TrackerMessage):
    """Sender ``cid`` joined the path via a lateral link (sets nbrptdown)."""

    cid: ClusterId
    object_id: int = 0


@dataclass(frozen=True, repr=False, slots=True)
class GrowPar(TrackerMessage):
    """Sender ``cid`` joined the path via its hierarchy parent (sets nbrptup)."""

    cid: ClusterId
    object_id: int = 0


@dataclass(frozen=True, repr=False, slots=True)
class Shrink(TrackerMessage):
    """Remove deadwood: sender ``cid`` asks its path parent to drop it."""

    cid: ClusterId
    object_id: int = 0


@dataclass(frozen=True, repr=False, slots=True)
class ShrinkUpd(TrackerMessage):
    """Sender ``cid`` left the path; neighbors clear secondary pointers."""

    cid: ClusterId
    object_id: int = 0


@dataclass(frozen=True, repr=False, slots=True)
class Find(TrackerMessage):
    """A find operation in flight; ``cid`` is the forwarding process."""

    cid: Optional[ClusterId]
    find_id: int = 0
    object_id: int = 0


@dataclass(frozen=True, repr=False, slots=True)
class FindQuery(TrackerMessage):
    """Search-phase neighbor query from process ``cid``."""

    cid: ClusterId
    find_id: int = 0
    object_id: int = 0


@dataclass(frozen=True, repr=False, slots=True)
class FindAck(TrackerMessage):
    """Answer to a findQuery: ``pointer`` leads toward the tracking path."""

    pointer: ClusterId
    find_id: int = 0
    object_id: int = 0


@dataclass(frozen=True, repr=False, slots=True)
class Found(TrackerMessage):
    """Tracing finished at the evader's region."""

    find_id: int = 0
    object_id: int = 0


@dataclass(frozen=True, repr=False, slots=True)
class Prewarm(TrackerMessage):
    """Speculative pre-configuration of a predicted future path segment.

    Sent by the predictive baseline (``repro.baselines.pack``) to the
    cluster expected to receive the next ``grow``: a fresh (unexpired)
    prewarm lets that cluster skip its grow-timer delay when the real
    grow lands.  ``cid`` is the predicted joining (child) cluster,
    ``expiry`` the sim time after which the speculation is stale.
    Advisory only — it is neither a move nor a find message, so its
    in-transit presence never violates a §IV-C consistent state and its
    work lands in the accountant's ``other`` bucket.
    """

    cid: ClusterId
    expiry: float = 0.0
    object_id: int = 0


# Kinds whose in-transit presence violates a consistent state (§IV-C).
MOVE_MESSAGE_TYPES = (Grow, GrowNbr, GrowPar, Shrink, ShrinkUpd)
FIND_MESSAGE_TYPES = (Find, FindQuery, FindAck, Found)
# Advisory extension messages (neither move- nor find-critical).
OTHER_MESSAGE_TYPES = (Prewarm,)


def is_move_message(message: TrackerMessage) -> bool:
    return isinstance(message, MOVE_MESSAGE_TYPES)


def is_find_message(message: TrackerMessage) -> bool:
    return isinstance(message, FIND_MESSAGE_TYPES)
