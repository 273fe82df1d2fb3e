"""An irregular world: a hexagonal tiling and an agglomerative hierarchy.

The paper states VINESTALK for *any* clustering meeting §II-B; grids and
strips have closed-form instances in ``repro``, and this module builds
the rest of what ``irregular_map.py`` runs on.

:class:`HexTiling` is an axial-coordinate hex world: region ids are
``(q, r)`` with ``|q|, |r|, |q+r| <= radius``; each hex has up to six
neighbors and the region-graph distance is the standard hex distance.

:func:`build_agglomerative_hierarchy` contracts the cluster graph of any
tiling level by level: each round greedily merges every cluster with up
to ``ratio − 1`` unmerged neighbors (breadth-first, minimum-id order),
which guarantees the structural requirements (connected clusters,
nesting, a single top).  Geometry parameters are *measured*
(:func:`repro.hierarchy.tight_params`) rather than closed-form.  The
§II-B geometry assumptions (notably proximity) are not guaranteed for
arbitrary graphs — run :func:`repro.hierarchy.validate_hierarchy` when
the work bounds matter.  VINESTALK's *safety* (path maintenance, finds
terminating at the evader) does not depend on them, which the hex
integration tests demonstrate.
"""

from __future__ import annotations

import math
from typing import Dict, Hashable, List

from repro.geometry import Point, Region, RegionId, Tiling
from repro.hierarchy import (
    ExplicitHierarchy,
    GeometryParams,
    singleton_level_map,
    tight_params,
)

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


def build_agglomerative_hierarchy(
    tiling: Tiling, ratio: int = 3, max_levels: int = 32
) -> ExplicitHierarchy:
    """Build a hierarchy over ``tiling`` by repeated neighbor merging.

    Args:
        tiling: Any validated tiling.
        ratio: Target children per parent (merge group size).
        max_levels: Safety bound on hierarchy depth.

    Returns:
        An :class:`ExplicitHierarchy` with measured geometry parameters.
    """
    if ratio < 2:
        raise ValueError("ratio must be >= 2")
    regions = tiling.regions()
    level_maps: List[Dict[RegionId, Hashable]] = [singleton_level_map(tiling)]

    # Current clustering: cluster key -> member regions, plus adjacency.
    members: Dict[Hashable, List[RegionId]] = {u: [u] for u in regions}

    def cluster_adjacency() -> Dict[Hashable, set]:
        owner = {}
        for key, mems in members.items():
            for u in mems:
                owner[u] = key
        adj: Dict[Hashable, set] = {key: set() for key in members}
        for u in regions:
            for v in tiling.neighbors(u):
                if owner[u] != owner[v]:
                    adj[owner[u]].add(owner[v])
        return adj

    level = 0
    while len(members) > 1:
        level += 1
        if level > max_levels:
            raise RuntimeError("hierarchy construction did not converge")
        adj = cluster_adjacency()
        assignment: Dict[Hashable, int] = {}
        next_parent = 0
        for key in sorted(members):
            if key in assignment:
                continue
            parent = next_parent
            next_parent += 1
            assignment[key] = parent
            group = 1
            # Greedy BFS over unmerged neighbors, minimum key first.
            frontier = [key]
            while frontier and group < ratio:
                current = frontier.pop(0)
                for nbr in sorted(adj[current]):
                    if nbr in assignment or group >= ratio:
                        continue
                    assignment[nbr] = parent
                    group += 1
                    frontier.append(nbr)
        new_members: Dict[Hashable, List[RegionId]] = {}
        for key, parent in assignment.items():
            new_members.setdefault(parent, []).extend(members[key])
        members = new_members
        level_maps.append(
            {
                u: parent
                for parent, mems in members.items()
                for u in mems
            }
        )

    if len(level_maps) < 2:
        raise ValueError("tiling has a single region; no hierarchy to build")

    # Placeholder params so ExplicitHierarchy can assemble, then measure.
    max_level = len(level_maps) - 1
    placeholder = GeometryParams(
        max_level,
        tuple(1 for _ in range(max_level + 1)),
        tuple(1 for _ in range(max_level + 1)),
        tuple(1 for _ in range(max_level + 1)),
        tuple(1 for _ in range(max_level + 1)),
    )
    hierarchy = ExplicitHierarchy(tiling, level_maps, placeholder)
    hierarchy.params = tight_params(hierarchy)
    return hierarchy
