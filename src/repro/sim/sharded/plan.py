"""Shard plans: deterministic region → shard assignment.

A :class:`ShardPlan` maps every region of a tiling to one of ``k``
shards.  VSAs are pinned by their host region (a cluster process lives
at its head's region) and clients by their current region, so the plan
induces a full partition of the executable world.

The default partitioner, :func:`strip_plan`, slices the tiling's
canonical ``regions()`` order into ``k`` contiguous strips of
near-equal size.  On the grid tiling that order is column-major, so
strips are vertical bands — the handover-minimizing shape for
neighbor-local traffic (cross-shard edges only exist along the two
band borders, cf. Eppstein–Goodrich–Löffler's region assignment).
Everything is pure data derived from ``(tiling, k)``, so every shard
— and every worker process — computes the identical plan.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Tuple

from ...geometry.regions import RegionId
from ...geometry.tiling import Tiling


@dataclass(frozen=True)
class ShardPlan:
    """An immutable region → shard assignment.

    Attributes:
        k: Number of shards (every shard owns at least one region).
        assignment: ``region → shard`` for every region of the tiling.
    """

    k: int
    assignment: Tuple[Tuple[RegionId, int], ...]
    _lookup: Dict[RegionId, int] = field(
        init=False, repr=False, compare=False, hash=False, default=None
    )

    def __post_init__(self) -> None:
        lookup = dict(self.assignment)
        if len(lookup) != len(self.assignment):
            raise ValueError("duplicate region in shard assignment")
        shards = set(lookup.values())
        if shards != set(range(self.k)):
            raise ValueError(
                f"assignment must cover shards 0..{self.k - 1} exactly; "
                f"got {sorted(shards)}"
            )
        object.__setattr__(self, "_lookup", lookup)

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("_lookup", None)  # rebuilt on unpickle
        return state

    def __setstate__(self, state: dict) -> None:
        object.__setattr__(self, "__dict__", state)
        object.__setattr__(self, "_lookup", dict(self.assignment))

    def shard_of(self, region: RegionId) -> int:
        """Shard owning ``region``."""
        try:
            return self._lookup[region]
        except KeyError:
            raise KeyError(f"region {region!r} not in shard plan") from None

    def regions_of(self, shard: int) -> Tuple[RegionId, ...]:
        """Regions owned by ``shard``, in canonical order."""
        return tuple(r for r, s in self.assignment if s == shard)

    def owned_set(self, shard: int) -> FrozenSet[RegionId]:
        return frozenset(self.regions_of(shard))

    def counts(self) -> List[int]:
        """Regions per shard, indexed by shard id."""
        counts = [0] * self.k
        for _region, shard in self.assignment:
            counts[shard] += 1
        return counts


def strip_plan(tiling: Tiling, k: int) -> ShardPlan:
    """Partition ``tiling.regions()`` into ``k`` contiguous strips.

    Shard ``i`` owns the slice ``regions[i*n//k : (i+1)*n//k]`` of the
    canonical region order — near-equal sizes, fully determined by
    ``(tiling, k)``; every shard owns at least one region.

    Raises:
        ValueError: for ``k < 1``, or more shards than regions (a run
            asked for K shards must not quietly report fewer).
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    regions = list(tiling.regions())
    n = len(regions)
    if k > n:
        raise ValueError(f"{k} shards exceed this world's {n} regions")
    assignment: List[Tuple[RegionId, int]] = []
    for shard in range(k):
        for region in regions[shard * n // k : (shard + 1) * n // k]:
            assignment.append((region, shard))
    return ShardPlan(k=k, assignment=tuple(assignment))
