"""Find operation bookkeeping (§V).

The protocol itself carries no per-find state beyond the ``finding``
flags; to evaluate Theorem 5.2 the harness needs to know, per find:
where it started, when it started, when (and where) the first matching
``found`` output occurred, and how much communication it consumed.
:class:`FindCoordinator` issues find ids, listens to client ``found``
outputs and to C-gcast send records, and aggregates those facts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..geometry.regions import RegionId
from ..geocast.cgcast import SendRecord
from ..sim.engine import Simulator
from .messages import FIND_MESSAGE_TYPES


class FindIdCollisionError(ValueError):
    """A pre-assigned find id is already in use by another record."""


@dataclass
class FindRecord:
    """Lifecycle of one find operation."""

    find_id: int
    origin: RegionId
    issued_at: float
    evader_region_at_issue: Optional[RegionId] = None
    completed_at: Optional[float] = None
    found_region: Optional[RegionId] = None
    work: float = 0.0
    retries: int = 0
    #: Which tracked object this find targets (DESIGN.md §9).
    object_id: int = 0
    #: Optional latency budget (relative to ``issued_at``); ``None``
    #: means no deadline.
    deadline: Optional[float] = None

    @property
    def completed(self) -> bool:
        return self.completed_at is not None

    @property
    def latency(self) -> Optional[float]:
        if self.completed_at is None:
            return None
        return self.completed_at - self.issued_at


class FindCoordinator:
    """Issues find ids and aggregates per-find outcomes."""

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self._next_id = 1
        self.records: Dict[int, FindRecord] = {}

    def new_find(
        self,
        origin: RegionId,
        evader_region: Optional[RegionId] = None,
        find_id: Optional[int] = None,
        object_id: int = 0,
        deadline: Optional[float] = None,
    ) -> int:
        """Allocate a find id for a query issued at ``origin``.

        A pre-assigned ``find_id`` (sharded/service workloads use
        globally unique script-order ids) bypasses local allocation.
        The two schemes may interleave arbitrarily: local allocation
        skips over any id already taken (a pre-assigned id *below* the
        counter would otherwise be handed out a second time), and a
        pre-assigned id colliding with an existing record raises
        :class:`FindIdCollisionError` rather than silently overwriting
        bookkeeping.
        """
        if find_id is None:
            find_id = self._next_id
            while find_id in self.records:
                find_id += 1
            self._next_id = find_id + 1
        else:
            if find_id in self.records:
                raise FindIdCollisionError(
                    f"find id {find_id} already in use"
                )
            if find_id >= self._next_id:
                self._next_id = find_id + 1
        self.records[find_id] = FindRecord(
            find_id=find_id,
            origin=origin,
            issued_at=self.sim.now,
            evader_region_at_issue=evader_region,
            object_id=object_id,
            deadline=deadline,
        )
        return find_id

    # -- wiring ----------------------------------------------------------
    def client_found(self, find_id: int, region: RegionId, client_id: int) -> None:
        """Client ``found`` output observer (first response wins)."""
        record = self.records.get(find_id)
        if record is None or record.completed:
            return
        record.completed_at = self.sim.now
        record.found_region = region

    def observe_send(self, records: List[SendRecord]) -> None:
        """C-gcast observer: attribute find-message work to its find.

        Every send carrying the find's id counts, including the
        ``found`` relays after the first client response: completion is
        only known to the one shard that saw the responding client, so
        gating on it would make per-find work depend on the shard
        layout rather than on the (K-invariant) send set.
        """
        finds = self.records
        for _time, _src, _dest, payload, cost, _delay in records:
            if isinstance(payload, FIND_MESSAGE_TYPES):
                find = finds.get(getattr(payload, "find_id", 0))
                if find is not None:
                    find.work += cost

    # -- results -----------------------------------------------------------
    def completed_records(self) -> List[FindRecord]:
        return [r for r in self.records.values() if r.completed]

    def completion_rate(self) -> float:
        if not self.records:
            return 1.0
        return len(self.completed_records()) / len(self.records)
