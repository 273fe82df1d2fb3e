"""System state snapshots for verification (§IV-C machinery).

The correctness argument of the paper manipulates *system states*:
per-cluster pointer values plus the multiset of tracking messages in
transit.  :class:`SystemSnapshot` captures exactly that from a live
simulation (including each Tracker's ``sendq``, whose entries count as
"queued" messages), in a form the ``lookAhead`` function and the
consistency checker can manipulate without touching the simulation.

An absent cluster is ⊥: ``pointers`` holds the records a state sets,
and reading any other cluster gives a fresh all-⊥ record.  A state
therefore costs what its tracking path touches — at most one vertical
and one lateral process per level and their neighbours' secondary
pointers — never the world.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import DefaultDict, Dict, List, Optional, Tuple

from ..hierarchy.cluster import ClusterId
from .messages import TrackerMessage, is_move_message

# The four Fig. 2 pointers; None is ⊥.
PointerTuple = Tuple[
    Optional[ClusterId], Optional[ClusterId], Optional[ClusterId], Optional[ClusterId]
]
#: The pointers of a process off every path (Fig. 2's initial state).
BOTTOMS: PointerTuple = (None, None, None, None)


@dataclass
class PointerState:
    """Mutable pointer record of one cluster process."""

    c: Optional[ClusterId] = None
    p: Optional[ClusterId] = None
    nbrptup: Optional[ClusterId] = None
    nbrptdown: Optional[ClusterId] = None

    def as_tuple(self) -> PointerTuple:
        return (self.c, self.p, self.nbrptup, self.nbrptdown)

    def is_bottom(self) -> bool:
        return self.as_tuple() == BOTTOMS

    def copy(self) -> "PointerState":
        return PointerState(self.c, self.p, self.nbrptup, self.nbrptdown)


@dataclass(frozen=True)
class TransitMessage:
    """One tracking message in transit (or queued in a sendq).

    Attributes:
        src: Sending cluster (None for client-originated messages).
        dest: Destination cluster.
        payload: The :class:`~repro.core.messages.TrackerMessage`.
    """

    src: Optional[ClusterId]
    dest: ClusterId
    payload: TrackerMessage


@dataclass
class SystemSnapshot:
    """Pointer values of the clusters a state sets plus move messages in flight.

    ``pointers`` is total: a missing cluster reads as (and is stored as)
    a fresh ⊥ record, so writes through ``pointers[c]`` always stick.
    :meth:`copy` and :meth:`pointer_map` drop all-⊥ records, so copying
    and comparing cost O(non-⊥) however many clusters were read.
    """

    pointers: DefaultDict[ClusterId, PointerState] = field(
        default_factory=lambda: defaultdict(PointerState)
    )
    in_transit: List[TransitMessage] = field(default_factory=list)

    def copy(self) -> "SystemSnapshot":
        pointers = defaultdict(PointerState)
        for cid, ps in self.pointers.items():
            if not ps.is_bottom():
                pointers[cid] = ps.copy()
        return SystemSnapshot(pointers, list(self.in_transit))

    def pointer_map(self) -> Dict[ClusterId, PointerTuple]:
        """Canonical, comparable view of the non-⊥ pointer records."""
        return {
            cid: ps.as_tuple() for cid, ps in self.pointers.items() if not ps.is_bottom()
        }

    def messages_of_kind(self, *types) -> List[TransitMessage]:
        return [m for m in self.in_transit if isinstance(m.payload, types)]


def capture_snapshot(system, object_id: int = 0) -> SystemSnapshot:
    """Capture the current tracking state of a VINESTALK system.

    Includes every Tracker's pointers, its queued ``sendq`` entries, and
    all move messages in transit in C-gcast.  Find-phase messages are
    excluded: the §IV-C state space covers only the tracking structure.
    Only built Trackers are read, in cluster order: one not yet built is
    in its initial state (all ⊥, empty ``sendq``), and none is built here.

    In a multi-object deployment each lane is an independent instance
    of the §IV-C state space; ``object_id`` selects which lane's
    pointers and messages are captured (messages of other lanes are
    invisible to this snapshot, exactly as find messages are).

    Args:
        system: A :class:`~repro.core.vinestalk.VineStalk` instance.
        object_id: Which tracking lane to capture (default: lane 0).
    """
    pointers: DefaultDict[ClusterId, PointerState] = defaultdict(PointerState)
    in_transit: List[TransitMessage] = []
    built = system.trackers.built
    for clust in sorted(built):
        tracker = built[clust]
        state = tracker.pointer_state(object_id)
        if state != BOTTOMS:
            pointers[clust] = PointerState(*state)
        for dest, payload in tracker.sendq:
            if (
                is_move_message(payload)
                and getattr(payload, "object_id", 0) == object_id
            ):
                in_transit.append(TransitMessage(tracker.clust, dest, payload))
    for src, dest, payload, _time in system.cgcast.in_transit():
        if isinstance(dest, tuple):  # client broadcast, not a cluster message
            continue
        if not isinstance(payload, TrackerMessage) or not is_move_message(payload):
            continue
        if getattr(payload, "object_id", 0) != object_id:
            continue
        src_cluster = src if isinstance(src, ClusterId) else None
        in_transit.append(TransitMessage(src_cluster, dest, payload))
    return SystemSnapshot(pointers, in_transit)
