"""Physical mobile nodes (§II-C.1 substrate).

A :class:`PhysicalNode` is the hardware carrier of a client automaton:
it has an identity, a current region and an alive flag; whoever drives
it relocates it with :meth:`PhysicalNode.move_to`.  Region changes,
failures and restarts are announced to observers — the VSA emulation
subscribes and follows each region's population.
"""

from __future__ import annotations

from typing import Callable, List

from ..geometry.regions import RegionId
from ..geometry.tiling import Tiling

# Observers receive (node, event, region); event ∈ {"enter", "leave", "fail", "restart"}.
NodeObserver = Callable[["PhysicalNode", str, RegionId], None]


class PhysicalNode:
    """One mobile physical node.

    Args:
        node_id: Unique identifier (``p`` in the paper's ``C_p``).
        tiling: Deployment space.
        region: Initial region.
    """

    def __init__(self, node_id: int, tiling: Tiling, region: RegionId) -> None:
        self.node_id = node_id
        self.tiling = tiling
        self.region: RegionId = region
        self.alive = True
        self._observers: List[NodeObserver] = []

    def observe(self, observer: NodeObserver) -> None:
        self._observers.append(observer)

    def _emit(self, event: str, region: RegionId) -> None:
        for observer in self._observers:
            observer(self, event, region)

    # ------------------------------------------------------------------
    # Movement
    # ------------------------------------------------------------------
    def move_to(self, target: RegionId) -> None:
        """Relocate to a neighboring region."""
        if not self.alive:
            return
        if target == self.region:
            return
        if not self.tiling.are_neighbors(self.region, target):
            raise ValueError(f"{target!r} not a neighbor of {self.region!r}")
        old = self.region
        self.region = target  # update first so "leave" observers see the node gone
        self._emit("leave", old)
        self._emit("enter", target)

    # ------------------------------------------------------------------
    # Failures
    # ------------------------------------------------------------------
    def fail(self) -> None:
        """Stopping failure of the node (and anything riding it)."""
        if self.alive:
            self.alive = False
            self._emit("fail", self.region)

    def restart(self) -> None:
        """Restart the node in place."""
        if not self.alive:
            self.alive = True
            self._emit("restart", self.region)
