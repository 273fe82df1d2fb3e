"""Base-``r`` grid hierarchy (§II-B example).

Unit squares are grouped into ``r × r`` level-1 blocks, those into
``r² × r²`` level-2 blocks, and so on up to a single level-MAX cluster.
Blocks sharing an edge or a corner are neighbors, so ``ω(l) = 8`` and the
closed forms ``MAX = ⌈log_r(D+1)⌉``, ``n(l) = 2r^l − 1``,
``p(l) = r^{l+1} − 1`` and ``q(l) = r^l`` hold.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

from ..geometry.regions import RegionId
from ..geometry.tiling import GridTiling
from .cluster import ClusterId
from .hierarchy import ExplicitHierarchy
from .params import grid_params


class GridHierarchy(ExplicitHierarchy):
    """Hierarchical base-``r`` partition of a square :class:`GridTiling`.

    Args:
        tiling: A square grid tiling whose side is ``r ** max_level``.
        r: Grid base (block fan-out per axis), at least 2.

    The level-``l`` cluster of region ``(col, row)`` is the block
    ``(col // r^l, row // r^l)``.
    """

    def __init__(self, tiling: GridTiling, r: int) -> None:
        if r < 2:
            raise ValueError("grid base r must be >= 2")
        if tiling.width != tiling.height:
            raise ValueError("GridHierarchy requires a square tiling")
        side = tiling.width
        max_level = round(math.log(side, r))
        if r**max_level != side:
            raise ValueError(
                f"tiling side {side} is not a power of r={r}; "
                f"use grid_hierarchy(r, max_level) to build a matching world"
            )
        if max_level < 1:
            raise ValueError("side must be at least r (MAX > 0)")
        self.r = r
        self.tiling = tiling
        self.max_level = max_level
        self.params = grid_params(r, max_level)

        # What ``ExplicitHierarchy.__init__`` derives from the level maps
        # ``u -> (u[0] // r^l, u[1] // r^l)`` — sorted members, sorted
        # clusters per level, the member nearest the block's centroid
        # (ties to the minimum id) as head — written block by block.
        self._assignment: Dict[tuple, ClusterId] = {}
        self._members: Dict[ClusterId, List[RegionId]] = {}
        self._by_level: Dict[int, List[ClusterId]] = {}
        self._heads: Dict[ClusterId, RegionId] = {}
        regions = tiling.regions()  # (col, row)-sorted: (c, w) sits at c * side + w
        for level in range(max_level + 1):
            block = r**level
            mid = (block - 1) // 2
            clusters = self._by_level[level] = []
            for col in range(0, side, block):
                for row in range(0, side, block):
                    cid = ClusterId(level, (col // block, row // block))
                    clusters.append(cid)
                    self._heads[cid] = regions[(col + mid) * side + row + mid]
                    members = self._members[cid] = []
                    for start in range(col * side + row, (col + block) * side, side):
                        members += regions[start : start + block]
                    for u in members:
                        self._assignment[(u, level)] = cid
        self._nbrs_cache: Dict[ClusterId, List[ClusterId]] = {}
        self._children_cache: Dict[ClusterId, List[ClusterId]] = {}

    # Closed-form overrides (the generic versions are correct but slower).
    def parent(self, c: ClusterId) -> Optional[ClusterId]:
        if c.level == self.max_level:
            return None
        col, row = c.key  # level-0 keys are region ids, which are also pairs
        block = self.r ** (c.level + 1)
        anchor = ((col // self.r) * block, (row // self.r) * block)
        return self.cluster(anchor, c.level + 1)

    def nbrs(self, c: ClusterId) -> List[ClusterId]:
        """Closed-form block adjacency (≤ 8 neighbors on the grid).

        Equivalent to the generic member-boundary scan: full ``r^l``
        blocks share a boundary point exactly when their block coords
        differ by at most one per axis.  The ``(dc, dr)`` loop meets them
        in ``ClusterId`` order, the generic scan's sorted order.
        """
        cached = self._nbrs_cache.get(c)
        if cached is None:
            block = self.r**c.level
            n_blocks = self.tiling.width // block
            bc, br = c.key  # level-0 keys are region ids: same shape
            out = []
            for dc in (-1, 0, 1):
                for dr in (-1, 0, 1):
                    if dc == 0 and dr == 0:
                        continue
                    oc, orow = bc + dc, br + dr
                    if 0 <= oc < n_blocks and 0 <= orow < n_blocks:
                        out.append(self.cluster((oc * block, orow * block), c.level))
            self._nbrs_cache[c] = cached = out
        return list(cached)


def grid_hierarchy(r: int, max_level: int) -> GridHierarchy:
    """Build a fresh ``r^max_level``-sided grid world and its hierarchy."""
    if max_level < 1:
        raise ValueError("max_level must be >= 1")
    tiling = GridTiling(r**max_level)
    return GridHierarchy(tiling, r)

