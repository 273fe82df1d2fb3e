"""Grow/shrink timer schedules ``g, s`` and the Eq. (1) constraint.

VINESTALK delays grow and shrink propagation with per-level timers
``g, s : L − {MAX} → R`` that must satisfy Eq. (1):

    Σ_{j=0}^{l} [s(j) − g(j)]  >  (δ+e) · n(l)      for every l < MAX.

This guarantees a climbing grow always outruns the shrink cleaning the
branch behind it (Lemma 4.3).  :class:`TimerSchedule` stores concrete
values and validates the constraint; :func:`grid_schedule` builds the
corollary's ``s(l) = s·r^l`` shape used by all grid experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ..hierarchy.params import GeometryParams


class TimerScheduleError(ValueError):
    """The schedule violates Eq. (1) or basic sanity conditions."""


@dataclass(frozen=True)
class TimerSchedule:
    """Concrete grow/shrink timer values for levels ``0 .. MAX−1``.

    Attributes:
        g_values: Grow dwell per level.
        s_values: Shrink dwell per level.
    """

    g_values: Tuple[float, ...]
    s_values: Tuple[float, ...]

    @property
    def max_level(self) -> int:
        """MAX; timers are defined for levels strictly below it."""
        return len(self.g_values)

    def g(self, level: int) -> float:
        return self.g_values[self._check(level)]

    def s(self, level: int) -> float:
        return self.s_values[self._check(level)]

    def _check(self, level: int) -> int:
        if not 0 <= level < len(self.g_values):
            raise ValueError(
                f"timer level {level} outside 0..{len(self.g_values) - 1}"
            )
        return level

    def validate(self, params: GeometryParams, delta: float, e: float) -> None:
        """Check Eq. (1) against the hierarchy geometry.

        Raises:
            TimerScheduleError: on any violated condition.
        """
        if len(self.g_values) != len(self.s_values):
            raise TimerScheduleError("g and s must have the same length")
        if len(self.g_values) != params.max_level:
            raise TimerScheduleError(
                f"schedule covers {len(self.g_values)} levels, "
                f"hierarchy needs MAX={params.max_level}"
            )
        for level, value in enumerate(self.g_values):
            if value < 0:
                raise TimerScheduleError(f"g({level}) < 0")
        running = 0.0
        for level in range(params.max_level):
            diff = self.s_values[level] - self.g_values[level]
            if diff <= 0:
                raise TimerScheduleError(f"s({level}) must exceed g({level})")
            running += diff
            bound = (delta + e) * params.n(level)
            if running <= bound:
                raise TimerScheduleError(
                    f"Eq.(1) violated at level {level}: "
                    f"Σ[s−g]={running} <= (δ+e)n({level})={bound}"
                )


def grid_schedule(
    params: GeometryParams,
    delta: float,
    e: float,
    r: int,
    g0: float = 0.0,
    slack: float = 3.0,
) -> TimerSchedule:
    """The corollary's geometric schedule: ``g(l)=g0``, ``s(l)=g0+slack·(δ+e)·r^l``.

    With ``slack >= 3`` the running sum ``Σ_{j≤l}[s−g] = slack·(δ+e)·(r^{l+1}−1)/(r−1)
    ≥ slack·(δ+e)·r^l`` strictly exceeds ``(δ+e)·n(l) = (δ+e)(2r^l − 1)``.

    Raises:
        TimerScheduleError: if the resulting schedule fails Eq. (1)
            (e.g. ``slack`` too small).
    """
    if slack <= 0:
        raise TimerScheduleError("slack must be positive")
    levels = range(params.max_level)
    g_vals = tuple(float(g0) for _ in levels)
    s_vals = tuple(g0 + slack * (delta + e) * r**l for l in levels)
    schedule = TimerSchedule(g_vals, s_vals)
    schedule.validate(params, delta, e)
    return schedule


def uniform_schedule(
    params: GeometryParams, delta: float, e: float, margin: float = 1.5
) -> TimerSchedule:
    """A level-independent schedule: ``g(l)=0``, ``s(l)`` flat but Eq.(1)-safe.

    Sets every ``s(l)`` to ``margin · (δ+e) · n(MAX−1)`` so even the final
    prefix sum clears the largest bound.  Simple, but much slower than
    the geometric schedule at low levels — used by the E1 timer ablation.
    """
    if margin <= 1.0:
        raise TimerScheduleError("margin must exceed 1.0")
    top = (delta + e) * params.n(params.max_level - 1) * margin
    g_vals = tuple(0.0 for _ in range(params.max_level))
    s_vals = tuple(top for _ in range(params.max_level))
    schedule = TimerSchedule(g_vals, s_vals)
    schedule.validate(params, delta, e)
    return schedule
