"""Awerbuch–Peleg regional directories (hierarchical comparator).

Awerbuch and Peleg [4] track mobile users with a hierarchy of regional
directories built on sparse graph covers: the level-``i`` directory
locates any object within ``2^i``, reads cost ``O(d·log N)``-ish, and
moves update directories lazily with forwarding pointers.

The sparse-cover machinery (their [3]) is far below this comparison's
needs; we implement the standard *operational skeleton* on the grid:

* level-``i`` directories partition the grid into cells of side ``2^i``
  with a read/write anchor per cell;
* a move appends a forwarding pointer at level 0 and updates the
  level-``i`` directory once the object has moved ``2^{i-1}`` since that
  directory's last update (the lazy-update rule), paying the distance to
  the level-``i`` anchor plus a ``log N`` quorum-spread factor;
* a find climbs directory levels until one covers the object
  (``2^l ≥ d``), paying a read at each visited level, then follows at
  most ``2^l`` of forwarding pointers.

The constants differ from [4] but the regimes match the quoted bounds:
find ``O(d·log²N)``, move ``O(d·logD·logN)`` amortized.
"""

from __future__ import annotations

import math
from typing import Dict

from ..geometry.regions import RegionId
from ..geometry.tiling import GridTiling
from .analytic import FREE, AnalyticTracker, Cost


class AwerbuchPelegDirectory(AnalyticTracker):
    """Simplified regional-directory location service on a grid."""

    def __init__(self, tiling: GridTiling, delta: float = 1.0) -> None:
        if not isinstance(tiling, GridTiling):
            raise TypeError("AwerbuchPelegDirectory requires a GridTiling")
        super().__init__(tiling, delta)
        side = max(tiling.width, tiling.height)
        self.levels = max(1, math.ceil(math.log2(side))) if side > 1 else 1
        self.log_n = max(1.0, math.log2(len(tiling.regions())))
        # Per level: position recorded in the directory at last update.
        self._recorded: Dict[int, RegionId] = {}

    # ------------------------------------------------------------------
    # Geometry helpers
    # ------------------------------------------------------------------
    def _anchor(self, region: RegionId, level: int) -> RegionId:
        """Read/write anchor of the level-``level`` cell containing ``region``."""
        cell = 2**level
        col = min((region[0] // cell) * cell + cell // 2, self.tiling.width - 1)
        row = min((region[1] // cell) * cell + cell // 2, self.tiling.height - 1)
        return (col, row)

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def _enter(self, region: RegionId) -> Cost:
        """Initial registration at every directory level (setup, uncharged)."""
        for level in range(self.levels + 1):
            self._recorded[level] = region
        return FREE

    def _move(self, new_region: RegionId) -> Cost:
        """Lazy directory updates after a one-region move."""
        work = 1.0  # the level-0 forwarding pointer
        for level in range(1, self.levels + 1):
            recorded = self._recorded.get(level, new_region)
            drift = self.tiling.distance(new_region, recorded)
            if drift >= 2 ** (level - 1):
                anchor = self._anchor(new_region, level)
                reach = self.tiling.distance(new_region, anchor) + 1
                work += reach * self.log_n  # write-quorum spread
                self._recorded[level] = new_region
        return Cost(work=work, time=work * self.delta)

    def _find(self, origin: RegionId) -> Cost:
        """Climb directories until one covers the object, then trace."""
        work = 0.0
        for level in range(self.levels + 1):
            anchor = self._anchor(origin, level)
            work += (self.tiling.distance(origin, anchor) + 1) * self.log_n
            recorded = self._recorded.get(level)
            covers = (
                recorded is not None
                and self.tiling.distance(origin, recorded) <= 2**level
            )
            if covers:
                # Follow forwarding pointers from the recorded position.
                work += self.tiling.distance(recorded, self.location) + 1
                break
        else:
            work += self.tiling.distance(origin, self.location) + 1
        return Cost(work=work, time=work * self.delta)

    def handover(self, cost: Cost) -> bool:
        """A move hands over when it rewrites a directory above level 0."""
        return cost.work > 1.0
