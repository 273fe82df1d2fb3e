"""Test oracles on a tracking path's lateral links (§IV-B).

A lateral link is a parent pointer ``p`` that names a neighbour cluster
at the same level instead of the parent.  No run consumes these counts;
the tests check the design invariant with them.
"""

from typing import List

from repro.core.state import SystemSnapshot
from repro.hierarchy.cluster import ClusterId
from repro.hierarchy.hierarchy import ClusterHierarchy


def lateral_link_count(
    snapshot: SystemSnapshot, hierarchy: ClusterHierarchy, sequence: List[ClusterId]
) -> int:
    """Number of lateral links (``p ∈ nbrs``) along a path sequence."""
    count = 0
    for ck in sequence:
        pk = snapshot.pointers[ck].p
        if pk is not None and pk in hierarchy.nbrs(ck):
            count += 1
    return count


def laterals_per_level_ok(
    snapshot: SystemSnapshot, hierarchy: ClusterHierarchy, sequence: List[ClusterId]
) -> bool:
    """At most one lateral link per level (the §IV-B design invariant)."""
    seen_levels = set()
    for ck in sequence:
        pk = snapshot.pointers[ck].p
        if pk is not None and pk in hierarchy.nbrs(ck):
            if ck.level in seen_levels:
                return False
            seen_levels.add(ck.level)
    return True
