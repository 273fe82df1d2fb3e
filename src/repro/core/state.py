"""System state snapshots for verification (§IV-C machinery).

The correctness argument of the paper manipulates *system states*:
per-cluster pointer values plus the multiset of tracking messages in
transit.  :class:`SystemSnapshot` captures exactly that from a live
simulation (including each Tracker's ``sendq``, whose entries count as
"queued" messages), in a form the ``lookAhead`` function and the
consistency checker can manipulate without touching the simulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..hierarchy.cluster import ClusterId
from .messages import TrackerMessage, is_move_message

# The four Fig. 2 pointers; None is ⊥.
PointerTuple = Tuple[
    Optional[ClusterId], Optional[ClusterId], Optional[ClusterId], Optional[ClusterId]
]


@dataclass
class PointerState:
    """Mutable pointer record of one cluster process."""

    c: Optional[ClusterId] = None
    p: Optional[ClusterId] = None
    nbrptup: Optional[ClusterId] = None
    nbrptdown: Optional[ClusterId] = None

    def as_tuple(self) -> PointerTuple:
        return (self.c, self.p, self.nbrptup, self.nbrptdown)

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
    """Pointer values of every cluster plus move messages in flight."""

    pointers: Dict[ClusterId, PointerState]
    in_transit: List[TransitMessage] = field(default_factory=list)

    def copy(self) -> "SystemSnapshot":
        return SystemSnapshot(
            pointers={cid: ps.copy() for cid, ps in self.pointers.items()},
            in_transit=list(self.in_transit),
        )

    def pointer_map(self) -> Dict[ClusterId, PointerTuple]:
        """Canonical, comparable view of all pointer values."""
        return {cid: ps.as_tuple() for cid, ps in self.pointers.items()}

    def messages_of_kind(self, *types) -> List[TransitMessage]:
        return [m for m in self.in_transit if isinstance(m.payload, types)]


def capture_snapshot(system, object_id: int = 0) -> SystemSnapshot:
    """Capture the current tracking state of a VINESTALK system.

    Includes every Tracker's pointers, its queued ``sendq`` entries, and
    all move messages in transit in C-gcast.  Find-phase messages are
    excluded: the §IV-C state space covers only the tracking structure.
    A Tracker not yet built reads as its initial state (all ⊥, empty
    ``sendq``); none is built here.

    In a multi-object deployment each lane is an independent instance
    of the §IV-C state space; ``object_id`` selects which lane's
    pointers and messages are captured (messages of other lanes are
    invisible to this snapshot, exactly as find messages are).

    Args:
        system: A :class:`~repro.core.vinestalk.VineStalk` instance.
        object_id: Which tracking lane to capture (default: lane 0).
    """
    pointers: Dict[ClusterId, PointerState] = {}
    in_transit: List[TransitMessage] = []
    built = system.trackers.built
    for clust in system.hierarchy.all_clusters():
        tracker = built.get(clust)
        if tracker is None:
            pointers[clust] = PointerState()
            continue
        pointers[clust] = PointerState(*tracker.pointer_state(object_id))
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
