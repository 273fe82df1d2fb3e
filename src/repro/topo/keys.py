"""Content-addressed topology keys.

A :class:`TopologyKey` freezes everything a hierarchy construction
depends on, so it can serve as a cache key in the parent process, travel
(pickled) to pool workers for pre-warming, and be compared across sweep
jobs to find the distinct topologies a sweep will touch.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Hierarchy kinds the cache knows how to build from a key alone.
KINDS = ("grid", "strip")


@dataclass(frozen=True)
class TopologyKey:
    """Frozen description of one hierarchy construction.

    Attributes:
        kind: ``"grid"`` or ``"strip"`` — the construction family.
        r: Base (block fan-out) of the clustering.
        max_level: Top cluster level.
    """

    kind: str
    r: int
    max_level: int

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown topology kind {self.kind!r}; expected {KINDS}")
        if self.r < 2:
            raise ValueError("topology base r must be >= 2")
        if self.max_level < 1:
            raise ValueError("max_level must be >= 1")


def grid_key(r: int, max_level: int) -> TopologyKey:
    """Key for the base-``r`` grid hierarchy (``repro.hierarchy.grid``)."""
    return TopologyKey("grid", r, max_level)


def strip_key(r: int, max_level: int) -> TopologyKey:
    """Key for the 1-D strip hierarchy (``repro.hierarchy.strip``)."""
    return TopologyKey("strip", r, max_level)
