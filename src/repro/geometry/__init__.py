"""Deployment-space geometry: points, regions, tilings (§II-A)."""

from .points import Point, centroid
from .regions import Region, RegionId
from .tiling import GraphTiling, GridTiling, Tiling, line_tiling

__all__ = [
    "GraphTiling",
    "GridTiling",
    "Point",
    "Region",
    "RegionId",
    "Tiling",
    "centroid",
    "line_tiling",
]
