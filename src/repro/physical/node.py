"""Physical mobile nodes (§II-C.1 substrate).

A :class:`PhysicalNode` is the hardware carrier of a client automaton:
it has an identity, a current region, an alive flag, and (optionally) a
mobility model relocating it over time.  Region changes are announced to
observers — the GPS oracle subscribes and turns them into
``GPSupdate`` inputs for the client automaton riding the node.
"""

from __future__ import annotations

import random
from typing import Callable, List, Optional

from ..geometry.regions import RegionId
from ..geometry.tiling import Tiling
from ..mobility.models import MobilityModel
from ..sim.engine import Simulator

# Observers receive (node, event, region); event ∈ {"enter", "leave", "fail", "restart"}.
NodeObserver = Callable[["PhysicalNode", str, RegionId], None]


class PhysicalNode:
    """One mobile physical node.

    Args:
        node_id: Unique identifier (``p`` in the paper's ``C_p``).
        sim: Simulator for movement ticks.
        tiling: Deployment space.
        region: Initial region.
        model: Optional mobility model; a node without one is static.
        dwell: Time between relocations when a model is present.
        rng: Random stream for the model.
    """

    def __init__(
        self,
        node_id: int,
        sim: Simulator,
        tiling: Tiling,
        region: RegionId,
        model: Optional[MobilityModel] = None,
        dwell: float = 1.0,
        rng: Optional[random.Random] = None,
    ) -> None:
        if dwell <= 0:
            raise ValueError("dwell must be positive")
        self.node_id = node_id
        self.sim = sim
        self.tiling = tiling
        self.region: RegionId = region
        self.model = model
        self.dwell = dwell
        self.rng = rng if rng is not None else random.Random(node_id)
        self.alive = True
        self._observers: List[NodeObserver] = []
        self._moving = False
        self._tick_event = None

    @property
    def name(self) -> str:
        return f"node:{self.node_id}"

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

    def start_moving(self) -> None:
        """Begin relocating every ``dwell`` per the mobility model."""
        if self.model is None:
            raise RuntimeError(f"{self.name} has no mobility model")
        if self._moving:
            return
        self._moving = True
        self._schedule_tick()

    def stop_moving(self) -> None:
        self._moving = False
        if self._tick_event is not None:
            self.sim.cancel(self._tick_event)
            self._tick_event = None

    def _schedule_tick(self) -> None:
        self._tick_event = self.sim.call_after(self.dwell, self._tick, tag=self.name)

    def _tick(self) -> None:
        if not self._moving or not self.alive:
            return
        target = self.model.next_region(self.region, self.tiling, self.rng)
        self.move_to(target)
        self._schedule_tick()

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
