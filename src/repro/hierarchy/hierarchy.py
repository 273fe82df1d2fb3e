"""Cluster hierarchy over a tiling (§II-B).

The hierarchy is the four-tuple ``(C, L, cluster, h)``: cluster ids,
levels ``0..MAX``, a total onto map from ``(region, level)`` to the
containing cluster, and a head map from cluster to one of its member
regions.  :class:`ClusterHierarchy` is the abstract interface;
:class:`ExplicitHierarchy` realises it from explicit level maps: the
path for irregular worlds, and the oracle of the closed-form grid.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Sequence

from ..geometry.points import centroid
from ..geometry.regions import RegionId
from ..geometry.tiling import Tiling
from .cluster import ClusterId
from .params import GeometryParams


class ClusterHierarchy:
    """Abstract cluster hierarchy interface.

    Concrete hierarchies must provide the primitive maps; the derived
    terminology of §II-B (members, nbrs, children, parent) has default
    implementations that concrete classes may override with faster ones.
    """

    tiling: Tiling
    max_level: int
    params: GeometryParams

    # -- primitive maps -------------------------------------------------
    def cluster(self, u: RegionId, level: int) -> ClusterId:
        """The level-``level`` cluster containing region ``u``."""
        raise NotImplementedError

    def head(self, c: ClusterId) -> RegionId:
        """The head region ``h(c)`` of cluster ``c``."""
        raise NotImplementedError

    def members(self, c: ClusterId) -> List[RegionId]:
        """All member regions of ``c`` (stable order)."""
        raise NotImplementedError

    def clusters_at_level(self, level: int) -> List[ClusterId]:
        """All clusters of one level (stable order)."""
        raise NotImplementedError

    # -- derived terminology --------------------------------------------
    def levels(self) -> range:
        return range(self.max_level + 1)

    def root(self) -> ClusterId:
        """The unique level-MAX cluster."""
        tops = self.clusters_at_level(self.max_level)
        if len(tops) != 1:  # pragma: no cover - guarded by validation
            raise ValueError(f"expected 1 top cluster, found {len(tops)}")
        return tops[0]

    def all_clusters(self) -> List[ClusterId]:
        out: List[ClusterId] = []
        for level in self.levels():
            out.extend(self.clusters_at_level(level))
        return out

    def nbrs(self, c: ClusterId) -> List[ClusterId]:
        """Same-level clusters sharing a region boundary with ``c``."""
        found = set()
        member_set = set(self.members(c))
        for u in member_set:
            for v in self.tiling.neighbors(u):
                if v in member_set:
                    continue
                other = self.cluster(v, c.level)
                if other != c:
                    found.add(other)
        return sorted(found)

    def children(self, c: ClusterId) -> List[ClusterId]:
        """Level-(l−1) clusters whose members lie inside ``c``."""
        if c.level == 0:
            return []
        member_set = set(self.members(c))
        seen = set()
        out = []
        for u in self.members(c):
            child = self.cluster(u, c.level - 1)
            if child not in seen:
                seen.add(child)
                if set(self.members(child)) <= member_set:
                    out.append(child)
        return sorted(out)

    def parent(self, c: ClusterId) -> Optional[ClusterId]:
        """The level-(l+1) cluster containing ``c`` (None at MAX)."""
        if c.level == self.max_level:
            return None
        any_member = self.members(c)[0]
        return self.cluster(any_member, c.level + 1)

    # -- convenience -----------------------------------------------------
    def chain(self, u: RegionId) -> List[ClusterId]:
        """The iterated clusters of region ``u``: ``[cluster(u,0) .. cluster(u,MAX)]``."""
        return [self.cluster(u, level) for level in self.levels()]


class ExplicitHierarchy(ClusterHierarchy):
    """Hierarchy built from explicit per-level region→key assignments.

    Args:
        tiling: The underlying tiling.
        level_maps: ``level_maps[l][u]`` is the level-``l`` cluster key of
            region ``u``.  ``level_maps[0]`` may be omitted per-region; by
            requirement 3, level 0 is always the singleton ``{u}`` keyed
            by the region id itself.
        params: Geometry parameter functions for the clustering.
        heads: Optional explicit head map ``{ClusterId: RegionId}``; by
            default the member region closest to the member centroid
            (ties to minimum region id) is chosen.
    """

    def __init__(
        self,
        tiling: Tiling,
        level_maps: Sequence[Dict[RegionId, Hashable]],
        params: GeometryParams,
        heads: Optional[Dict[ClusterId, RegionId]] = None,
    ) -> None:
        self.tiling = tiling
        self.max_level = len(level_maps) - 1
        if self.max_level < 1:
            raise ValueError("hierarchy needs MAX > 0")
        self.params = params

        regions = tiling.regions()
        self._assignment: Dict[tuple, ClusterId] = {}
        self._members: Dict[ClusterId, List[RegionId]] = {}
        for level, mapping in enumerate(level_maps):
            for u in regions:
                if u not in mapping:
                    raise ValueError(f"level {level} map misses region {u!r}")
                cid = ClusterId(level, mapping[u])
                self._assignment[(u, level)] = cid
                self._members.setdefault(cid, []).append(u)
        for member_list in self._members.values():
            member_list.sort()
        self._by_level: Dict[int, List[ClusterId]] = {}
        for cid in self._members:
            self._by_level.setdefault(cid.level, []).append(cid)
        for cluster_list in self._by_level.values():
            cluster_list.sort()

        self._heads: Dict[ClusterId, RegionId] = {}
        for cid, member_list in self._members.items():
            if heads and cid in heads:
                if heads[cid] not in member_list:
                    raise ValueError(f"head of {cid} is not a member")
                self._heads[cid] = heads[cid]
            else:
                self._heads[cid] = default_head(tiling, member_list)

        self._nbrs_cache: Dict[ClusterId, List[ClusterId]] = {}
        self._children_cache: Dict[ClusterId, List[ClusterId]] = {}

    def cluster(self, u: RegionId, level: int) -> ClusterId:
        # One interned ClusterId per (region, level): ids stay ``is``-equal.
        try:
            return self._assignment[(u, level)]
        except KeyError:
            if not 0 <= level <= self.max_level:
                raise ValueError(f"level {level} outside 0..{self.max_level}") from None
            raise KeyError(f"no level {level} cluster for region {u!r}") from None

    def head(self, c: ClusterId) -> RegionId:
        try:
            return self._heads[c]
        except KeyError:
            raise KeyError(f"unknown cluster {c}") from None

    def members(self, c: ClusterId) -> List[RegionId]:
        try:
            return list(self._members[c])
        except KeyError:
            raise KeyError(f"unknown cluster {c}") from None

    def clusters_at_level(self, level: int) -> List[ClusterId]:
        if not 0 <= level <= self.max_level:
            raise ValueError(f"level {level} outside 0..{self.max_level}")
        return list(self._by_level.get(level, []))

    def nbrs(self, c: ClusterId) -> List[ClusterId]:
        if c not in self._nbrs_cache:
            self._nbrs_cache[c] = super().nbrs(c)
        return list(self._nbrs_cache[c])

    def children(self, c: ClusterId) -> List[ClusterId]:
        if c not in self._children_cache:
            self._children_cache[c] = super().children(c)
        return list(self._children_cache[c])


def default_head(tiling: Tiling, member_list: List[RegionId]) -> RegionId:
    """Deterministic head choice: member closest to the member centroid."""
    if not member_list:
        raise ValueError("cluster with no members")
    if len(member_list) == 1:
        return member_list[0]
    mid = centroid([tiling.region(u).center for u in member_list])

    def score(u: RegionId):
        pt = tiling.region(u).center
        return ((pt.x - mid.x) ** 2 + (pt.y - mid.y) ** 2, u)

    return min(member_list, key=score)


def singleton_level_map(tiling: Tiling) -> Dict[RegionId, Hashable]:
    """The level-0 map required by requirement 3: each region is its own cluster."""
    return {u: u for u in tiling.regions()}
