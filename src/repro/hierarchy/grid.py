"""Base-``r`` grid hierarchy (§II-B example).

Unit squares are grouped into ``r × r`` level-1 blocks, those into
``r² × r²`` level-2 blocks, and so on up to a single level-MAX cluster.
Blocks sharing an edge or a corner are neighbors, so ``ω(l) = 8`` and the
closed forms ``MAX = ⌈log_r(D+1)⌉``, ``n(l) = 2r^l − 1``,
``p(l) = r^{l+1} − 1`` and ``q(l) = r^l`` hold.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

from ..geometry.regions import RegionId
from ..geometry.tiling import GridTiling
from .cluster import ClusterId
from .hierarchy import ClusterHierarchy
from .params import grid_params


class GridHierarchy(ClusterHierarchy):
    """Hierarchical base-``r`` partition of a square :class:`GridTiling`.

    The level-``l`` cluster of region ``(col, row)`` is the block
    ``(col // r^l, row // r^l)``; its head, the member nearest the
    block's centroid (ties to the minimum id), is the block's
    ``((r^l − 1) // 2, (r^l − 1) // 2)`` cell.  Nothing is tabulated up
    front: each ``ClusterId`` is interned on first use (one per
    ``(level, key)``) and the maps memoise what they answer.
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
        self._ids: Dict[Tuple[int, int, int], ClusterId] = {}  # (level, bc, br)
        self._assignment: Dict[tuple, ClusterId] = {}  # (region, level)
        self._heads: Dict[ClusterId, RegionId] = {}
        self._parents: Dict[ClusterId, Optional[ClusterId]] = {}
        self._nbrs_cache: Dict[ClusterId, List[ClusterId]] = {}
        self._by_level: Dict[int, List[ClusterId]] = {}

    def _intern(self, level: int, bc: int, br: int) -> ClusterId:
        """The one ``ClusterId`` of block ``(bc, br)`` at ``level``."""
        cid = self._ids.get((level, bc, br))
        if cid is None:
            cid = self._ids[(level, bc, br)] = ClusterId(level, (bc, br))
        return cid

    def _block(self, c: ClusterId) -> Tuple[int, int, int]:
        """``(bc, br, r^level)`` of ``c``; ``KeyError`` for a phantom."""
        try:
            bc, br = c.key  # level-0 keys are region ids, which are also pairs
            block = self.r**c.level
            n_blocks = self.tiling.width // block
            if 0 <= c.level <= self.max_level and 0 <= min(bc, br) <= max(bc, br) < n_blocks:
                return bc, br, block
        except (AttributeError, TypeError, ValueError):
            pass
        raise KeyError(f"unknown cluster {c}")

    # -- primitive maps -------------------------------------------------
    def cluster(self, u: RegionId, level: int) -> ClusterId:
        try:
            return self._assignment[(u, level)]
        except KeyError:
            if not 0 <= level <= self.max_level:
                raise ValueError(f"level {level} outside 0..{self.max_level}") from None
            self.tiling.index(u)  # KeyError: no such region
        block = self.r**level
        cid = self._assignment[(u, level)] = self._intern(level, u[0] // block, u[1] // block)
        return cid

    def head(self, c: ClusterId) -> RegionId:
        try:
            return self._heads[c]
        except KeyError:
            bc, br, block = self._block(c)
        mid = (block - 1) // 2
        head = self._heads[c] = (bc * block + mid, br * block + mid)
        return head

    def members(self, c: ClusterId) -> List[RegionId]:
        bc, br, block = self._block(c)
        return self.tiling.block(bc * block, br * block, block)

    def clusters_at_level(self, level: int) -> List[ClusterId]:
        if not 0 <= level <= self.max_level:
            raise ValueError(f"level {level} outside 0..{self.max_level}")
        cached = self._by_level.get(level)
        if cached is None:
            blocks = range(self.tiling.width // self.r**level)
            cached = self._by_level[level] = [
                self._intern(level, bc, br) for bc in blocks for br in blocks
            ]
        return list(cached)

    # -- derived terminology, in closed form ----------------------------
    def parent(self, c: ClusterId) -> Optional[ClusterId]:
        try:
            return self._parents[c]
        except KeyError:
            bc, br, _block = self._block(c)
        r = self.r
        up = None if c.level == self.max_level else self._intern(c.level + 1, bc // r, br // r)
        self._parents[c] = up
        return up

    def children(self, c: ClusterId) -> List[ClusterId]:
        bc, br, _block = self._block(c)
        r, fan = self.r, range(self.r if c.level else 0)
        return [self._intern(c.level - 1, bc * r + i, br * r + j) for i in fan for j in fan]

    def nbrs(self, c: ClusterId) -> List[ClusterId]:
        """The ≤ 8 blocks whose coords differ by at most one per axis —
        exactly those sharing a boundary point — in ``ClusterId`` order."""
        cached = self._nbrs_cache.get(c)
        if cached is None:
            bc, br, block = self._block(c)
            n_blocks = self.tiling.width // block
            cached = self._nbrs_cache[c] = [
                self._intern(c.level, oc, orow)
                for oc in range(max(0, bc - 1), min(n_blocks, bc + 2))
                for orow in range(max(0, br - 1), min(n_blocks, br + 2))
                if oc != bc or orow != br
            ]
        return list(cached)


def grid_hierarchy(r: int, max_level: int) -> GridHierarchy:
    """Build a fresh ``r^max_level``-sided grid world and its hierarchy."""
    if max_level < 1:
        raise ValueError("max_level must be >= 1")
    return GridHierarchy(GridTiling(r**max_level), r)
