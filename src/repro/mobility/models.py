"""Region-granularity mobility models.

The tracking problem is defined at region granularity (§III): the evader
occupies exactly one region and nondeterministically relocates to a
neighboring one.  A :class:`MobilityModel` resolves that nondeterminism:
given the current region it produces the next region (always a neighbor,
or the same region to idle).

Models provided:

* :class:`RandomNeighborWalk` — uniform neighbor each step.
* :class:`BoundaryOscillator` — ping-pongs between two adjacent regions;
  used with :func:`worst_boundary_pair` to provoke the dithering problem.
* :class:`FixedPath` — replays an explicit region sequence.
"""

from __future__ import annotations

import random
from typing import Optional, Sequence, Tuple

from ..geometry.regions import RegionId
from ..geometry.tiling import Tiling
from ..hierarchy.hierarchy import ClusterHierarchy


class MobilityModel:
    """Chooses successive regions for a mobile entity."""

    def start_region(self, tiling: Tiling, rng: random.Random) -> RegionId:
        """Initial region; defaults to a uniformly random one."""
        return rng.choice(tiling.regions())

    def next_region(
        self, current: RegionId, tiling: Tiling, rng: random.Random
    ) -> RegionId:
        """The next region: a neighbor of ``current``, or ``current`` to idle."""
        raise NotImplementedError


class RandomNeighborWalk(MobilityModel):
    """Moves to a uniformly random neighboring region each step."""

    def __init__(self, start: Optional[RegionId] = None) -> None:
        self.start = start

    def start_region(self, tiling: Tiling, rng: random.Random) -> RegionId:
        if self.start is not None:
            return self.start
        return super().start_region(tiling, rng)

    def next_region(self, current, tiling, rng):
        return rng.choice(tiling.neighbors(current))


class BoundaryOscillator(MobilityModel):
    """Ping-pongs between two adjacent regions ``a`` and ``b``."""

    def __init__(self, a: RegionId, b: RegionId) -> None:
        self.a = a
        self.b = b

    def start_region(self, tiling: Tiling, rng: random.Random) -> RegionId:
        if not tiling.are_neighbors(self.a, self.b):
            raise ValueError(f"oscillator regions {self.a!r},{self.b!r} not adjacent")
        return self.a

    def next_region(self, current, tiling, rng):
        return self.b if current == self.a else self.a


class FixedPath(MobilityModel):
    """Replays an explicit sequence of regions, then idles at the end.

    Each consecutive pair must be neighbors (or equal, to idle a step).
    """

    def __init__(self, path: Sequence[RegionId]) -> None:
        if not path:
            raise ValueError("FixedPath needs at least one region")
        self.path = list(path)
        self._index = 0

    def start_region(self, tiling: Tiling, rng: random.Random) -> RegionId:
        self._index = 0
        for a, b in zip(self.path, self.path[1:]):
            if a != b and not tiling.are_neighbors(a, b):
                raise ValueError(f"path hop {a!r} -> {b!r} is not a neighbor move")
        return self.path[0]

    def next_region(self, current, tiling, rng):
        if self._index + 1 < len(self.path):
            self._index += 1
        return self.path[self._index]


def worst_boundary_pair(hierarchy: ClusterHierarchy) -> Tuple[RegionId, RegionId]:
    """Two adjacent regions separated at every hierarchy level below MAX
    (at the most levels, where no pair is separated at every one).

    Such a pair exists on any grid hierarchy (e.g. the central vertical
    boundary).  Oscillating across it makes every move cross a
    multi-level cluster boundary — the "dithering" stressor of §IV-B.

    Raises:
        ValueError: if no such pair exists in the hierarchy.
    """
    best: Optional[Tuple[int, RegionId, RegionId]] = None
    tiling = hierarchy.tiling
    for u in tiling.regions():
        for v in tiling.neighbors(u):
            if v < u:
                continue
            split_below = 0
            for level in range(hierarchy.max_level):
                if hierarchy.cluster(u, level) != hierarchy.cluster(v, level):
                    split_below += 1
            if best is None or split_below > best[0]:
                best = (split_below, u, v)
    if best is None:
        raise ValueError("hierarchy world has a single region")
    return best[1:]
