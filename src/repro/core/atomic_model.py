"""The atomic reference model: ``init``, ``atomicMove``, ``atomicMoveSeq`` (§IV-C).

This is an *independent* specification of what the tracking structure
must look like after each evader move, written directly from the
definitions (vertical growth, lateral joins via secondary pointers,
bottom-up shrink to the junction) — it shares no code with the Tracker
automaton or with ``lookAhead``.  Theorem 4.8 equates
``lookAhead(execution state)`` with ``atomicMoveSeq(move sequence)``;
the test-suite and benchmark E5 check exactly that equation.
"""

from __future__ import annotations

from typing import List

from ..geometry.regions import RegionId
from ..hierarchy.cluster import ClusterId
from ..hierarchy.hierarchy import ClusterHierarchy
from .state import SystemSnapshot


class AtomicModelError(ValueError):
    """An atomicMove precondition is violated (e.g. non-neighbor move)."""


def init_state(hierarchy: ClusterHierarchy, region: RegionId) -> SystemSnapshot:
    """``init(c_0)``: consistent state whose path is a vertical growth.

    The path is ``cluster(region, MAX), …, cluster(region, 0)`` with the
    level-0 self-pointer, every ``p`` a hierarchy parent, and the
    secondary pointers forced by consistency condition 3.
    """
    state = SystemSnapshot()  # every pointer ⊥, no messages
    ptr = state.pointers
    chain = hierarchy.chain(region)  # level 0 .. MAX
    ptr[chain[0]].c = chain[0]
    for lower, upper in zip(chain, chain[1:]):
        ptr[lower].p = upper
        ptr[upper].c = lower
    for cluster in chain[:-1]:  # every path process below MAX grew vertically
        for nbr in hierarchy.nbrs(cluster):
            ptr[nbr].nbrptup = cluster
    return state


def atomic_move(
    hierarchy: ClusterHierarchy,
    state: SystemSnapshot,
    new_region: RegionId,
) -> SystemSnapshot:
    """``atomicMove``: the consistent state after one atomic evader move.

    Args:
        hierarchy: The cluster hierarchy.
        state: A *consistent* state with a tracking path.
        new_region: The evader's new region — must be the old region or a
            neighbor of it.

    The construction mirrors the definition: grow a new vertical segment
    from ``cluster(new_region, 0)``, joining the old path at the first
    process already on it (or laterally at a neighbor flagged by
    ``nbrptup``); then shrink the deserted branch bottom-up to the
    junction, clearing the secondary pointers of removed processes.
    """
    old_terminus = _terminus(hierarchy, state)
    new_c0 = hierarchy.cluster(new_region, 0)
    if new_c0 == old_terminus:
        return state.copy()
    old_region = hierarchy.head(old_terminus)  # level-0 cluster == region
    if not hierarchy.tiling.are_neighbors(old_region, new_region):
        raise AtomicModelError(
            f"atomicMove requires a neighbor move, got {old_region!r}->{new_region!r}"
        )

    state = state.copy()
    ptr = state.pointers

    # --- grow phase ------------------------------------------------------
    clust = new_c0
    ptr[clust].c = clust
    while ptr[clust].p is None and clust.level != hierarchy.max_level:
        if ptr[clust].nbrptup is not None:
            parent = ptr[clust].nbrptup  # lateral join
            ptr[clust].p = parent
            for nbr in hierarchy.nbrs(clust):
                ptr[nbr].nbrptdown = clust
        else:
            parent = hierarchy.parent(clust)  # vertical growth
            ptr[clust].p = parent
            for nbr in hierarchy.nbrs(clust):
                ptr[nbr].nbrptup = clust
        ptr[parent].c = clust
        clust = parent

    # --- shrink phase ------------------------------------------------------
    clust = old_terminus
    if ptr[clust].c == clust:
        ptr[clust].c = None  # the client's shrink message
    if ptr[clust].c is not None:
        # The grow already repointed the old terminus (it is the junction,
        # e.g. on a move straight back): the shrink dies immediately.
        return state
    while ptr[clust].p is not None and clust.level != hierarchy.max_level:
        for nbr in hierarchy.nbrs(clust):
            if ptr[nbr].nbrptup == clust:
                ptr[nbr].nbrptup = None
            if ptr[nbr].nbrptdown == clust:
                ptr[nbr].nbrptdown = None
        parent = ptr[clust].p
        if ptr[parent].c == clust:
            ptr[clust].p = None
            ptr[parent].c = None
            clust = parent
        else:
            ptr[clust].p = None
    return state


def atomic_move_seq(
    hierarchy: ClusterHierarchy, regions: List[RegionId]
) -> SystemSnapshot:
    """``atomicMoveSeq``: fold ``atomicMove`` over a region sequence."""
    if not regions:
        raise AtomicModelError("atomicMoveSeq needs at least the initial region")
    state = init_state(hierarchy, regions[0])
    for region in regions[1:]:
        state = atomic_move(hierarchy, state, region)
    return state


def _terminus(hierarchy: ClusterHierarchy, state: SystemSnapshot) -> ClusterId:
    """The level-0 terminus of the state's tracking path."""
    current = hierarchy.root()
    if state.pointers[current].c is None:
        raise AtomicModelError("state has no tracking path")
    seen = set()
    while True:
        child = state.pointers[current].c
        if child == current:
            return current
        if child is None or child in seen:
            raise AtomicModelError(f"broken tracking path at {current}")
        seen.add(current)
        current = child
