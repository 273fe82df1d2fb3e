"""Evader speed restrictions (§VI).

The concurrent analysis of §VI requires the mobile object to be slow
enough that each move's grows and shrinks behave as in the atomic case.
This module derives safe dwell times from the timer schedule and the
hierarchy geometry.

*Atomic dwell* — long enough for a move's full update (grow to MAX plus
the trailing shrink) to complete before the next move: a worst-case grow
climbs every level paying ``g(l)`` plus the parent-hop delay, and the
shrink trails it by the slower ``s(l)`` schedule; we sum both and the
neighbor-update broadcasts.

*Concurrent dwell* — the §VI regime: the object may move again once the
lowest levels have settled; higher-level deadwood is still shrinking.
We use the level-1 settling time, which keeps per-move triggered work
identical to the atomic case in our executions (benchmark E6 verifies).
"""

from __future__ import annotations

from ..hierarchy.params import GeometryParams


def level_update_time(
    schedule, params: GeometryParams, delta: float, e: float, level: int
) -> float:
    """Worst-case time for a move's updates to settle through ``level``.

    Counts, per level ``j`` below ``level``: up to *two* shrink dwells
    ``s(j)`` plus a lateral hop ``(δ+e)·n(j)`` (a shrink traverses two
    same-level processes when the path has a lateral link there — the
    ``2s(l) + (δ+e)n(l)`` term in the Theorem 4.9 proof), the parent-hop
    propagation delay ``(δ+e)·p(j)``, and the trailing shrinkUpd /
    growNbr neighbor broadcast ``(δ+e)·n(j)``.
    """
    if level < 0 or level > params.max_level:
        raise ValueError(f"level {level} outside 0..{params.max_level}")
    total = delta  # client -> level-0 VSA broadcast
    for j in range(min(level + 1, params.max_level)):
        total += 2 * schedule.s(j)
        total += (delta + e) * params.p(j)
        total += 2 * (delta + e) * params.n(j)
    return total


def atomic_dwell(schedule, params: GeometryParams, delta: float, e: float) -> float:
    """A dwell time guaranteeing updates complete before the next move."""
    return level_update_time(schedule, params, delta, e, params.max_level)


def concurrent_dwell(schedule, params: GeometryParams, delta: float, e: float) -> float:
    """A §VI-style dwell: level 1 settles, higher levels update in flight."""
    return level_update_time(schedule, params, delta, e, 1)
