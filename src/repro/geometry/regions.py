"""Regions of the deployment space (§II-A).

The plane is divided into known connected regions with unique ids drawn
from an ordered set ``U``.  A :class:`Region` carries its id and a
representative center point.
The tiling object owns the ``nbr`` relation; regions are passive data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable

from .points import Point

RegionId = Hashable


@dataclass(frozen=True)
class Region:
    """One region of the tiled deployment space.

    Attributes:
        rid: Unique region id (orderable within one tiling).
        center: Representative point of the region.
    """

    rid: RegionId
    center: Point

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Region({self.rid!r})"
