"""The protocol the analytic cost-model baselines share.

Flooding, home-agent, Awerbuch–Peleg and passive-trace are priced, not
simulated: each is an exact operational cost model over the region
graph.  They share one life cycle — :meth:`AnalyticTracker.enter` places
the object, :meth:`~AnalyticTracker.move` and
:meth:`~AnalyticTracker.find` return one :class:`Cost` each and add it
to the running totals — so a harness drives any of them without knowing
which one it holds (:mod:`repro.analysis.crossbase`, E2, E8).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..geometry.regions import RegionId
from ..geometry.tiling import Tiling


@dataclass(frozen=True)
class Cost:
    """Work (broadcasts) and time of one operation."""

    work: float
    time: float


FREE = Cost(work=0.0, time=0.0)


class AnalyticTracker:
    """Base of the analytic baselines: placement, totals and refusals.

    A model supplies :meth:`_move` and :meth:`_find` (and overrides
    :meth:`_enter` or :meth:`handover` when it has setup cost or
    maintenance to hand over); the public methods keep the bookkeeping.
    """

    def __init__(self, tiling: Tiling, delta: float = 1.0) -> None:
        self.tiling = tiling
        self.delta = delta
        self.location: Optional[RegionId] = None
        self.total_move_work = 0.0
        self.total_find_work = 0.0
        self.moves = 0
        self.finds = 0

    def enter(self, region: RegionId) -> Cost:
        """Place the object at ``region``; its setup cost (if any) is
        added to ``total_move_work`` but is not a move."""
        self.location = region
        cost = self._enter(region)
        self.total_move_work += cost.work
        return cost

    def move(self, region: RegionId) -> Cost:
        """The object moved to ``region``: the model's maintenance cost."""
        if self.location is None:
            raise RuntimeError("enter() before move()")
        self.location = region
        cost = self._move(region)
        self.moves += 1
        self.total_move_work += cost.work
        return cost

    def find(self, origin: RegionId) -> Cost:
        """A find issued at ``origin``: the model's lookup cost."""
        if self.location is None:
            raise RuntimeError("enter() before find()")
        cost = self._find(origin)
        self.finds += 1
        self.total_find_work += cost.work
        return cost

    def handover(self, cost: Cost) -> bool:
        """Whether the move that cost ``cost`` handed the object's record
        over to a new place (nothing is maintained by default)."""
        return False

    def _enter(self, region: RegionId) -> Cost:
        return FREE

    def _move(self, region: RegionId) -> Cost:
        return FREE

    def _find(self, origin: RegionId) -> Cost:
        raise NotImplementedError
