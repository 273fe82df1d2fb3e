"""Points in the 2-D deployment plane."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, order=True)
class Point:
    """A point in the plane."""

    x: float
    y: float


def centroid(points: list) -> Point:
    """Arithmetic mean of a non-empty point collection."""
    if not points:
        raise ValueError("centroid of empty point set")
    sx = sum(p.x for p in points)
    sy = sum(p.y for p in points)
    return Point(sx / len(points), sy / len(points))
