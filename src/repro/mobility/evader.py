"""The mobile object being tracked (§III: the *Evader*).

The evader resides in exactly one region and relocates to neighboring
regions under a :class:`~repro.mobility.models.MobilityModel`.  It is
modeled with the GPS service: observers (the augmented GPS) receive a
``left(old_region)`` followed by a ``move(new_region)`` at each
relocation, exactly when the evader leaves/enters regions.
"""

from __future__ import annotations

import random
from typing import Callable, List, Optional

from ..geometry.regions import RegionId
from ..geometry.tiling import Tiling
from ..sim.engine import Simulator
from ..obs._state import OBS
from ..obs.events import EvaderMoved
from .models import MobilityContractError, MobilityModel

# Observers receive (event, region) with event in {"move", "left"}.
EvaderObserver = Callable[[str, RegionId], None]


class Evader:
    """The tracked mobile object.

    Args:
        sim: Simulator driving the dwell clock.
        tiling: The deployment space.
        model: Mobility model resolving each relocation.
        dwell: Time spent in a region between relocations.
        rng: Random stream for the model.
        name: Trace name.
        object_id: Tracking-lane id in a multi-object deployment
            (DESIGN.md §9); ``0`` is the paper's single evader.

    The evader is created *outside* the space; call :meth:`enter` to
    place it (emitting the first ``move``), then :meth:`start` to begin
    periodic relocations, or drive single steps with :meth:`step`.
    """

    def __init__(
        self,
        sim: Simulator,
        tiling: Tiling,
        model: MobilityModel,
        dwell: float,
        rng: Optional[random.Random] = None,
        name: str = "evader",
        object_id: int = 0,
    ) -> None:
        if dwell <= 0:
            raise ValueError("dwell must be positive")
        self.sim = sim
        self.tiling = tiling
        self.model = model
        self.dwell = dwell
        self.rng = rng if rng is not None else random.Random(0)
        self.name = name
        self.object_id = object_id
        self.region: Optional[RegionId] = None
        self.moves_made = 0
        self.stays_made = 0
        self.distance_traveled = 0
        self._observers: List[EvaderObserver] = []
        self._running = False
        self._tick_event = None

    def observe(self, observer: EvaderObserver) -> None:
        """Register for move/left notifications (the augmented GPS)."""
        self._observers.append(observer)

    def unobserve(self, observer: EvaderObserver) -> None:
        """Remove an observer (no-op when absent)."""
        try:
            self._observers.remove(observer)
        except ValueError:
            pass

    @property
    def observer_count(self) -> int:
        """Number of live observers (leak detection in tests)."""
        return len(self._observers)

    def _emit(self, event: str, region: RegionId) -> None:
        if OBS.events_enabled:
            OBS.emit(
                EvaderMoved(
                    time=self.sim.now,
                    event=event,
                    region=region,
                    object_id=self.object_id,
                )
            )
        for observer in self._observers:
            observer(event, region)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def enter(self, region: Optional[RegionId] = None) -> RegionId:
        """Place the evader into the space, emitting the first ``move``.

        The mobility model's ``start_region`` is always invoked so that
        stateful models (FixedPath) initialise; an explicit
        ``region`` overrides where the evader is actually placed.
        """
        if self.region is not None:
            raise RuntimeError("evader already entered")
        model_start = self.model.start_region(self.tiling, self.rng)
        if region is None:
            region = model_start
        self.region = region
        self._emit("move", region)
        return region

    def step(self) -> RegionId:
        """Perform one relocation chosen by the mobility model.

        The stay contract: a model whose ``allows_stay`` is ``True``
        (all historical built-ins) may return the current region to
        idle — the evader burns the dwell period without emitting
        ``left``/``move`` and counts it in :attr:`stays_made`.  A
        move-strict model (``allows_stay=False``, every generated
        model) must always move; a stay raises
        :class:`~repro.mobility.models.MobilityContractError` instead
        of being silently absorbed.
        """
        if self.region is None:
            raise RuntimeError("evader has not entered the space")
        target = self.model.next_region(self.region, self.tiling, self.rng)
        if target == self.region:
            if not getattr(self.model, "allows_stay", True):
                raise MobilityContractError(
                    f"{type(self.model).__name__} is move-strict but "
                    f"returned the current region {target!r}"
                )
            self.stays_made += 1
            return self.region
        return self.move_to(target)

    def move_to(self, target: RegionId) -> RegionId:
        """Relocate to ``target`` (a neighbor, or the current region to idle)."""
        if self.region is None:
            raise RuntimeError("evader has not entered the space")
        if target == self.region:
            return self.region
        if not self.tiling.are_neighbors(self.region, target):
            raise ValueError(f"{target!r} is not a neighbor of {self.region!r}")
        old = self.region
        self._emit("left", old)
        self.region = target
        self.moves_made += 1
        self.distance_traveled += 1
        self._emit("move", target)
        return target

    def start(self) -> None:
        """Begin relocating every ``dwell`` time units."""
        if self.region is None:
            raise RuntimeError("call enter() before start()")
        if self._running:
            return
        self._running = True
        self._schedule_tick()

    def stop(self) -> None:
        self._running = False
        if self._tick_event is not None:
            self.sim.cancel(self._tick_event)
            self._tick_event = None

    def _schedule_tick(self) -> None:
        self._tick_event = self.sim.call_after(self.dwell, self._tick, tag=self.name)

    def _tick(self) -> None:
        if not self._running:
            return
        self.step()
        self._schedule_tick()
