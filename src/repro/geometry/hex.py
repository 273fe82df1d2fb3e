"""Hexagonal tilings.

Axial-coordinate hex worlds: region ids are ``(q, r)`` with
``|q|, |r|, |q+r| <= radius``; each hex has up to six neighbors and the
region-graph distance is the standard hex distance.  Used to exercise
the hierarchy machinery beyond square grids.
"""

from __future__ import annotations

import math
from typing import Dict, List

from .points import Point
from .regions import Region, RegionId
from .tiling import Tiling

# Axial direction vectors of the six hex neighbors.
HEX_DIRECTIONS = ((1, 0), (1, -1), (0, -1), (-1, 0), (-1, 1), (0, 1))


class HexTiling(Tiling):
    """Hexagonal board of ``radius`` rings around a center hex."""

    def __init__(self, radius: int) -> None:
        if radius < 1:
            raise ValueError("radius must be >= 1")
        super().__init__()
        self.radius = radius
        self._regions: Dict[RegionId, Region] = {}
        for q in range(-radius, radius + 1):
            for r in range(-radius, radius + 1):
                if abs(q + r) > radius:
                    continue
                # Pointy-top axial to cartesian centers.
                x = math.sqrt(3) * (q + r / 2.0)
                y = 1.5 * r
                self._regions[(q, r)] = Region((q, r), center=Point(x, y))
        self._order = sorted(self._regions)

    def regions(self) -> List[RegionId]:
        return list(self._order)

    def region(self, rid: RegionId) -> Region:
        try:
            return self._regions[rid]
        except KeyError:
            raise KeyError(f"unknown region {rid!r}") from None

    def neighbors(self, rid: RegionId) -> List[RegionId]:
        if rid not in self._regions:
            raise KeyError(f"unknown region {rid!r}")
        q, r = rid
        out = []
        for dq, dr in HEX_DIRECTIONS:
            other = (q + dq, r + dr)
            if other in self._regions:
                out.append(other)
        return sorted(out)

    def distance(self, a: RegionId, b: RegionId) -> int:
        if a not in self._regions or b not in self._regions:
            raise KeyError(f"unknown region in distance({a!r}, {b!r})")
        dq = a[0] - b[0]
        dr = a[1] - b[1]
        return (abs(dq) + abs(dr) + abs(dq + dr)) // 2

    def diameter(self) -> int:
        return 2 * self.radius

    def size(self) -> int:
        return len(self._regions)
