"""The §VI speed-restriction model for generated trajectories.

Every trace the generator framework emits must be slow enough that the
tracking structure settles between relocations (§VI): after a move the
evader dwells at least as long as the move's updates take to settle
through every level the move touched.  :class:`SpeedLimits` turns the
timer schedule and hierarchy geometry into concrete per-move lower
bounds:

* ``mode="atomic"`` — every dwell is at least
  :func:`~repro.mobility.speed.atomic_dwell`: the full grow-to-MAX plus
  trailing shrink completes before the next move (the Theorem 4.9
  regime).
* ``mode="concurrent"`` — the §VI regime: the dwell after a move
  ``u → v`` is at least
  :func:`~repro.mobility.speed.level_update_time` at the move's
  *touched level* — the lowest level whose cluster contains both ``u``
  and ``v``.  Shallow moves (inside one level-1 cluster) get the cheap
  ``concurrent_dwell`` floor; moves crossing deep cluster boundaries
  (the adversarial-dither paths) must dwell longer, because their
  grows/shrinks climb further before the low levels settle.

The property suite (``tests/mobility/test_gen_properties.py``) pins
exactly this contract on every generator combinator tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ...geometry.regions import RegionId
from ..speed import level_update_time

#: Supported restriction modes.
MODES = ("atomic", "concurrent")


def touched_level(hierarchy, u: RegionId, v: RegionId) -> int:
    """The lowest level whose cluster contains both ``u`` and ``v``.

    A move ``u → v`` changes the evader's cluster at every level below
    this one, so its grows and shrinks run exactly through these levels
    (the worst neighbor move touches ``max_level``; a move inside one
    level-1 cluster touches level 1).
    """
    if u == v:
        return 0
    for level in range(hierarchy.max_level + 1):
        if hierarchy.cluster(u, level) == hierarchy.cluster(v, level):
            return level
    return hierarchy.max_level


@dataclass(frozen=True)
class SpeedLimits:
    """Per-level §VI dwell lower bounds for one world.

    Attributes:
        per_level: ``per_level[l]`` is the settling time of a move whose
            updates climb through level ``l``
            (:func:`~repro.mobility.speed.level_update_time`).
        mode: ``"atomic"`` or ``"concurrent"`` (see module docstring).
    """

    per_level: Tuple[float, ...]
    mode: str = "concurrent"

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if not self.per_level:
            raise ValueError("per_level must be non-empty")

    @property
    def max_level(self) -> int:
        return len(self.per_level) - 1

    @property
    def enter_floor(self) -> float:
        """Minimum dwell after entering the space (the enter grows the
        full path to MAX, so it settles like a worst-case move)."""
        return self.per_level[-1]

    def required(self, hierarchy, u: RegionId, v: RegionId) -> float:
        """Minimum dwell after the move ``u → v`` before the next move."""
        if self.mode == "atomic":
            return self.per_level[-1]
        return self.per_level[min(touched_level(hierarchy, u, v), self.max_level)]

    @classmethod
    def for_hierarchy(
        cls,
        hierarchy,
        delta: float = 1.0,
        e: float = 0.5,
        schedule=None,
        mode: str = "concurrent",
    ) -> "SpeedLimits":
        """Limits for one hierarchy under its (grid-corollary) schedule.

        ``schedule`` defaults to the grid schedule when the hierarchy
        exposes a base ``r``; non-grid hierarchies must pass one.
        """
        if schedule is None:
            r = getattr(hierarchy, "r", None)
            if r is None:
                raise ValueError(
                    "hierarchy has no grid base r; pass an explicit schedule"
                )
            from ...core.timers import grid_schedule

            schedule = grid_schedule(hierarchy.params, delta, e, r)
        params = hierarchy.params
        per_level = tuple(
            level_update_time(schedule, params, delta, e, level)
            for level in range(params.max_level + 1)
        )
        return cls(per_level=per_level, mode=mode)


def check_trace(trace, hierarchy, limits: SpeedLimits) -> Optional[str]:
    """Verify a :class:`~repro.mobility.gen.trace.MobilityTrace` against
    ``limits``; returns a human-readable violation or ``None`` when the
    trace is §VI-legal (a dwell may fall short of its floor by 1e-9, the
    float slack of summed step times).
    """
    steps = trace.steps
    for i in range(len(steps) - 1):
        t_here, here = steps[i]
        t_next, there = steps[i + 1]
        dwell = t_next - t_here
        if i == 0:
            floor = limits.enter_floor
            what = "enter"
        else:
            prev = steps[i - 1][1]
            floor = limits.required(hierarchy, prev, here)
            what = f"move {prev!r} -> {here!r}"
        if dwell + 1e-9 < floor:
            return (
                f"step {i}: dwell {dwell:g} at {here!r} after {what} "
                f"violates the §VI floor {floor:g} ({limits.mode})"
            )
    return None
