"""Consistent-state checker (§IV-C).

A state is *consistent* when (1) exactly one tracking path exists,
(2) every off-path process has ``c = p = ⊥``, (3)/(4) the secondary
pointers are exactly characterised by their iff conditions, and
(5) no grow/shrink-family messages are in transit or queued.
:func:`check_consistent` returns the list of violations (empty means
consistent), which both the test-suite and the Theorem 4.8 harness use.
"""

from __future__ import annotations

from typing import List

from ..geometry.regions import RegionId
from ..hierarchy.hierarchy import ClusterHierarchy
from .path import check_tracking_path
from .state import PointerState, SystemSnapshot


def check_consistent(
    snapshot: SystemSnapshot,
    hierarchy: ClusterHierarchy,
    evader_region: RegionId,
) -> List[str]:
    """All violations of the consistent-state conditions, in cluster order.

    Only the non-⊥ records and the neighbours of processes with
    ``p ≠ ⊥`` are visited: an expected ``nbrptup``/``nbrptdown`` is
    non-⊥ only next to such a process, so every other cluster is ⊥ and
    consistent.
    """
    problems: List[str] = []

    # Condition 1: one valid tracking path.
    path, path_problems = check_tracking_path(snapshot, hierarchy, evader_region)
    problems.extend(path_problems)
    on_path = set(path or [])
    records = {cid: ps for cid, ps in snapshot.pointers.items() if not ps.is_bottom()}

    # Condition 2: off-path processes have c = p = ⊥.
    for cid in sorted(records):
        if cid in on_path:
            continue
        ps = records[cid]
        if ps.c is not None:
            problems.append(f"off-path {cid} has c={ps.c}")
        if ps.p is not None:
            problems.append(f"off-path {cid} has p={ps.p}")

    # Conditions 3 and 4: secondary pointers are exactly the iff sets.
    parents = {cid: ps.p for cid, ps in records.items() if ps.p is not None}
    visited = set(records)
    for cid in parents:
        visited.update(hierarchy.nbrs(cid))
    bottom = PointerState()
    for cid in sorted(visited):
        ps = records.get(cid, bottom)
        nbrs = hierarchy.nbrs(cid)
        up_targets = [
            cn for cn in nbrs if cn in parents and parents[cn] == hierarchy.parent(cn)
        ]
        down_targets = [
            cn for cn in nbrs if cn in parents and parents[cn] in hierarchy.nbrs(cn)
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
