"""Work and time accounting (§IV-D, §V cost algebra).

The :class:`WorkAccountant` subscribes to C-gcast send records and
classifies each message's cost as *move work* (grow/shrink family),
*find work* (find/findQuery/findAck/found) or *other*.  Costs are the
region-graph distance units of §II-C.3 — the same algebra Theorems 4.9
and 5.2 are stated in.  :meth:`epoch` / :meth:`delta_since` let
experiment runners measure per-move or per-phase increments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..geocast.cgcast import SendRecord
from ..core.messages import TrackerMessage, is_find_message, is_move_message


@dataclass(frozen=True)
class WorkSnapshot:
    """Cumulative work totals at one instant."""

    move_work: float
    find_work: float
    other_work: float
    messages: int

    @property
    def total(self) -> float:
        return self.move_work + self.find_work + self.other_work

    def minus(self, earlier: "WorkSnapshot") -> "WorkSnapshot":
        return WorkSnapshot(
            self.move_work - earlier.move_work,
            self.find_work - earlier.find_work,
            self.other_work - earlier.other_work,
            self.messages - earlier.messages,
        )


_MOVE, _FIND, _OTHER = range(3)


def _classify(payload) -> Tuple[str, int]:
    """``(by-kind key, work bucket)`` of a payload's message class."""
    if not isinstance(payload, TrackerMessage):
        return "other", _OTHER
    if is_move_message(payload):
        return payload.kind, _MOVE
    if is_find_message(payload):
        return payload.kind, _FIND
    return payload.kind, _OTHER


class WorkAccountant:
    """Classifies and accumulates communication work."""

    def __init__(self) -> None:
        self.move_work = 0.0
        self.find_work = 0.0
        self.other_work = 0.0
        self.messages = 0
        self.by_kind: Dict[str, float] = {}
        self.count_by_kind: Dict[str, int] = {}
        # Message class → _classify() result: the classification depends
        # on the payload's class alone, so it is made once per class.
        self._classes: Dict[type, Tuple[str, int]] = {}
        self._cgcast = None  # the attached service, for epoch()'s flush

    def attach(self, cgcast) -> "WorkAccountant":
        """Subscribe to a C-gcast service; returns self for chaining."""
        cgcast.observe(self.observe)
        self._cgcast = cgcast
        return self

    def observe(self, records: List[SendRecord]) -> None:
        """Fold a batch of send records, in dispatch order."""
        classes, by_kind, counts = self._classes, self.by_kind, self.count_by_kind
        work = [self.move_work, self.find_work, self.other_work]  # by bucket
        for _time, _src, _dest, payload, cost, _delay in records:
            classified = classes.get(type(payload))
            if classified is None:
                classified = classes[type(payload)] = _classify(payload)
            kind, bucket = classified
            by_kind[kind] = by_kind.get(kind, 0.0) + cost
            counts[kind] = counts.get(kind, 0) + 1
            work[bucket] += cost
        self.move_work, self.find_work, self.other_work = work
        self.messages += len(records)

    def epoch(self) -> WorkSnapshot:
        """Snapshot of the cumulative totals (current inside an event too)."""
        if self._cgcast is not None:
            self._cgcast.flush()
        return WorkSnapshot(
            self.move_work, self.find_work, self.other_work, self.messages
        )

    def delta_since(self, earlier: WorkSnapshot) -> WorkSnapshot:
        return self.epoch().minus(earlier)
