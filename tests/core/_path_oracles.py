"""Test oracles on tracking paths and §IV-C states.

A lateral link is a parent pointer ``p`` that names a neighbour cluster
at the same level instead of the parent.  No run consumes these counts;
the tests check the design invariant with them (§IV-B).

:func:`dense_capture_snapshot` and :func:`dense_check_consistent` are
the snapshot and checker as they were when a state held one record per
cluster of the world: every cluster visited, in ``all_clusters()``
order.  The sparse ones in ``repro.core`` must agree with them on every
state, problem list and order included.
"""

from typing import Dict, List

from repro.core.messages import TrackerMessage, is_move_message
from repro.core.path import check_tracking_path
from repro.core.state import PointerState, SystemSnapshot, TransitMessage
from repro.geometry.regions import RegionId
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


def dense_capture_snapshot(system, object_id: int = 0) -> SystemSnapshot:
    """Capture the current tracking state of a VINESTALK system.

    Includes every Tracker's pointers, its queued ``sendq`` entries, and
    all move messages in transit in C-gcast.  Find-phase messages are
    excluded: the §IV-C state space covers only the tracking structure.
    A Tracker not yet built reads as its initial state (all ⊥, empty
    ``sendq``); none is built here.

    In a multi-object deployment each lane is an independent instance
    of the §IV-C state space; ``object_id`` selects which lane's
    pointers and messages are captured (messages of other lanes are
    invisible to this snapshot, exactly as find messages are).

    Args:
        system: A :class:`~repro.core.vinestalk.VineStalk` instance.
        object_id: Which tracking lane to capture (default: lane 0).
    """
    pointers: Dict[ClusterId, PointerState] = {}
    in_transit: List[TransitMessage] = []
    built = system.trackers.built
    for clust in system.hierarchy.all_clusters():
        tracker = built.get(clust)
        if tracker is None:
            pointers[clust] = PointerState()
            continue
        pointers[clust] = PointerState(*tracker.pointer_state(object_id))
        for dest, payload in tracker.sendq:
            if (
                is_move_message(payload)
                and getattr(payload, "object_id", 0) == object_id
            ):
                in_transit.append(TransitMessage(tracker.clust, dest, payload))
    for src, dest, payload, _time in system.cgcast.in_transit():
        if isinstance(dest, tuple):  # client broadcast, not a cluster message
            continue
        if not isinstance(payload, TrackerMessage) or not is_move_message(payload):
            continue
        if getattr(payload, "object_id", 0) != object_id:
            continue
        src_cluster = src if isinstance(src, ClusterId) else None
        in_transit.append(TransitMessage(src_cluster, dest, payload))
    return SystemSnapshot(pointers, in_transit)


def dense_check_consistent(
    snapshot: SystemSnapshot,
    hierarchy: ClusterHierarchy,
    evader_region: RegionId,
) -> List[str]:
    """All violations of the consistent-state conditions."""
    problems: List[str] = []

    # Condition 1: one valid tracking path.
    path, path_problems = check_tracking_path(snapshot, hierarchy, evader_region)
    problems.extend(path_problems)
    on_path = set(path or [])

    # Condition 2: off-path processes have c = p = ⊥.
    for cid, ps in snapshot.pointers.items():
        if cid in on_path:
            continue
        if ps.c is not None:
            problems.append(f"off-path {cid} has c={ps.c}")
        if ps.p is not None:
            problems.append(f"off-path {cid} has p={ps.p}")

    # Conditions 3 and 4: secondary pointers are exactly the iff sets.
    for cid, ps in snapshot.pointers.items():
        up_targets = [
            cn
            for cn in hierarchy.nbrs(cid)
            if snapshot.pointers[cn].p == hierarchy.parent(cn)
            and snapshot.pointers[cn].p is not None
        ]
        down_targets = [
            cn
            for cn in hierarchy.nbrs(cid)
            if snapshot.pointers[cn].p is not None
            and snapshot.pointers[cn].p in hierarchy.nbrs(cn)
        ]
        if len(up_targets) > 1:
            problems.append(f"{cid} has multiple nbrptup candidates {up_targets}")
        if len(down_targets) > 1:
            problems.append(f"{cid} has multiple nbrptdown candidates {down_targets}")
        expected_up = up_targets[0] if len(up_targets) == 1 else None
        expected_down = down_targets[0] if len(down_targets) == 1 else None
        if ps.nbrptup != expected_up:
            problems.append(
                f"{cid}.nbrptup={ps.nbrptup}, consistency requires {expected_up}"
            )
        if ps.nbrptdown != expected_down:
            problems.append(
                f"{cid}.nbrptdown={ps.nbrptdown}, consistency requires {expected_down}"
            )

    # Condition 5: no tracking messages in transit or queued.
    for msg in snapshot.in_transit:
        problems.append(f"message in transit: {msg.payload.kind} -> {msg.dest}")

    return problems


def dense_copy(snapshot: SystemSnapshot, hierarchy: ClusterHierarchy) -> SystemSnapshot:
    """``snapshot`` with one record per cluster, in ``all_clusters()`` order."""
    pointers = {
        cid: snapshot.pointers.get(cid, PointerState()).copy()
        for cid in hierarchy.all_clusters()
    }
    return SystemSnapshot(pointers, list(snapshot.in_transit))
