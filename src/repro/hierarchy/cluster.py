"""Cluster identifiers (§II-B).

A cluster id pairs its level with a level-unique key.  For the grid
hierarchy the key is the ``(block_col, block_row)`` coordinate of the
``r^level``-sized block; generic hierarchies may use any hashable key.
Cluster ids are ordered (level first), which gives deterministic
iteration everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable


@dataclass(frozen=True, order=True)
class ClusterId:
    """Identifier of one cluster in the hierarchy.

    Attributes:
        level: Hierarchy level of the cluster (0 .. MAX).
        key: Level-unique key distinguishing clusters at this level.

    Cluster ids are dict keys on every message hop, so the hash is
    computed once and the equality check short-circuits on identity (the
    hierarchy interns its ids, making identity the common case).
    """

    level: int
    key: Hashable

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.level, self.key)))

    def __hash__(self) -> int:
        return self._hash  # type: ignore[attr-defined]

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.level == other.level and self.key == other.key

    def __reduce__(self):
        # Recompute the cached hash on unpickle: str hashes are salted
        # per process, so a pickled hash would be wrong in a worker.
        return (self.__class__, (self.level, self.key))

    def __repr__(self) -> str:
        # Ids are interned and every send formats its endpoints into a
        # send line, so the string is cached on first use.
        cached = self.__dict__.get("_repr")
        if cached is None:
            cached = f"C{self.level}:{self.key}"
            object.__setattr__(self, "_repr", cached)
        return cached
