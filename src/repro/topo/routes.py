"""Precomputed shortest-path tables over a tiling's region graph.

A :class:`RouteTable` replaces per-call BFS with per-source BFS *parent
trees*, computed once and reused for every destination.  Trees are
keyed by the frozen down-set they avoid, so toggling regions down and
back up never recomputes anything that was already known: the table for
a previously seen down-set (in particular the empty one) is still there
when the down-set shrinks back.

Determinism: BFS explores ``tiling.neighbors(cur)`` in the tilings'
sorted order and records the first discoverer of each region as its
parent.  Early termination (a per-call BFS stops at the destination)
cannot change any parent assigned before the stop, so the path
reconstructed from a full tree is byte-for-byte the path a per-call BFS
returns — the reference BFS in ``tests/geocast/`` checks exactly that.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from typing import Dict, FrozenSet, List, Optional, Tuple

from ..geometry.regions import RegionId
from ..geometry.tiling import Tiling

#: Region down-set, frozen for use as a cache key.
DownSet = FrozenSet[RegionId]

EMPTY_DOWN: DownSet = frozenset()

#: Retained distinct down-sets; older ones are evicted LRU (they are
#: recomputable, so eviction only costs time, never correctness).
MAX_DOWN_SETS = 64


class RouteTable:
    """Shortest-path oracle for one tiling, layered by down-set.

    Args:
        tiling: The region graph.

    One table is shared by every router over the same tiling object (see
    :meth:`repro.topo.cache.TopologyCache.routes`); callers pass their
    own frozen down-set per query.
    """

    def __init__(self, tiling: Tiling) -> None:
        self.tiling = tiling
        # down-set -> source -> (parent tree, distance map)
        self._layers: "OrderedDict[DownSet, Dict[RegionId, Tuple[dict, dict]]]" = (
            OrderedDict()
        )
        self.tree_builds = 0
        self.tree_hits = 0

    # ------------------------------------------------------------------
    # Tree construction
    # ------------------------------------------------------------------
    def _tree(self, src: RegionId, down: DownSet) -> Tuple[dict, dict]:
        layer = self._layers.get(down)
        if layer is None:
            layer = self._layers[down] = {}
            if len(self._layers) > MAX_DOWN_SETS:
                self._layers.popitem(last=False)
        else:
            self._layers.move_to_end(down)
        cached = layer.get(src)
        if cached is not None:
            self.tree_hits += 1
            return cached
        self.tree_builds += 1
        parent: Dict[RegionId, RegionId] = {src: src}
        dist: Dict[RegionId, int] = {src: 0}
        frontier = deque([src])
        neighbors = self.tiling.neighbors
        while frontier:
            cur = frontier.popleft()
            for nxt in neighbors(cur):
                if nxt not in parent and nxt not in down:
                    parent[nxt] = cur
                    dist[nxt] = dist[cur] + 1
                    frontier.append(nxt)
        layer[src] = (parent, dist)
        return parent, dist

    @staticmethod
    def _walk_back(parent: dict, src: RegionId, dest: RegionId) -> List[RegionId]:
        path = [dest]
        while path[-1] != src:
            path.append(parent[path[-1]])
        path.reverse()
        return path

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def live_path(
        self, src: RegionId, dest: RegionId, down: DownSet = EMPTY_DOWN
    ) -> Optional[List[RegionId]]:
        """Shortest path avoiding ``down``, or None when none exists
        (including when an endpoint itself is down)."""
        if src in down or dest in down:
            return None
        parent, _ = self._tree(src, down)
        if dest not in parent:
            return None
        return self._walk_back(parent, src, dest)

    def path(
        self, src: RegionId, dest: RegionId, down: DownSet = EMPTY_DOWN
    ) -> List[RegionId]:
        """Shortest live path, falling back to the down-agnostic one.

        Mirrors the legacy router semantics: when the down-set
        disconnects the endpoints (or an endpoint is down), the
        down-agnostic shortest path is returned — the message then dies
        at the failed hop, like forwarding into a dead region.  Raises
        ``ValueError`` only when the tiling itself is disconnected.
        """
        path = self.live_path(src, dest, down)
        if path is None and down:
            path = self.live_path(src, dest, EMPTY_DOWN)
        if path is None:
            raise ValueError(f"no route from {src!r} to {dest!r}")
        return path

    def distance(
        self, src: RegionId, dest: RegionId, down: DownSet = EMPTY_DOWN
    ) -> Optional[int]:
        """Hop count of the shortest live path, or None when unreachable."""
        if src in down or dest in down:
            return None
        _, dist = self._tree(src, down)
        return dist.get(dest)
