"""Path segments and tracking paths (§IV-C terminology).

A *path segment* ``{c_x, …, c_0}`` is a cluster sequence chained by
``c``/``p`` pointers subject to the lateral-link typing rules; a
*tracking path* is a segment from the level-MAX root down to the
evader's level-0 cluster with the self-pointer terminus
``c_0.c = c_0``.  These predicates operate on
:class:`~repro.core.state.SystemSnapshot` objects.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..geometry.regions import RegionId
from ..hierarchy.cluster import ClusterId
from ..hierarchy.hierarchy import ClusterHierarchy
from .state import SystemSnapshot


def extract_path(
    snapshot: SystemSnapshot, hierarchy: ClusterHierarchy
) -> Tuple[List[ClusterId], bool]:
    """Follow ``c`` pointers from the root.

    Returns:
        ``(sequence, terminated)`` where ``sequence`` runs root-first and
        ``terminated`` is True iff it ends in a level-0 self-pointer
        (``c_0.c = c_0``).  A root with ``c = ⊥`` yields ``([], False)``.
    """
    root = hierarchy.root()
    sequence: List[ClusterId] = []
    current = root
    if snapshot.pointers[root].c is None:
        return [], False
    visited = set()
    while True:
        sequence.append(current)
        visited.add(current)
        child = snapshot.pointers[current].c
        if child is None:
            return sequence, False
        if child == current:
            return sequence, True
        if child in visited:  # defensive: pointer cycle
            return sequence, False
        current = child


def check_path_segment(
    snapshot: SystemSnapshot,
    hierarchy: ClusterHierarchy,
    sequence: List[ClusterId],
) -> List[str]:
    """Violations of the path-segment conditions for ``sequence``.

    ``sequence`` is ordered ``[c_x, …, c_0]`` (root-first, as produced by
    :func:`extract_path`).  Returns an empty list iff it is a valid path
    segment.
    """
    problems: List[str] = []
    if not sequence:
        return ["empty sequence"]
    ptr = snapshot.pointers

    cx = sequence[0]
    if cx.level == hierarchy.max_level:
        # Condition 1: root has p = ⊥ and c ∈ children ∪ {⊥}.
        if ptr[cx].p is not None:
            problems.append(f"root {cx} has p={ptr[cx].p}")
        if ptr[cx].c is not None and ptr[cx].c not in hierarchy.children(cx):
            problems.append(f"root {cx} has non-child c={ptr[cx].c}")

    # Condition 2: chain links ck.c = ck−1 and (ck.c).p = ck.
    for upper, lower in zip(sequence, sequence[1:]):
        if ptr[upper].c != lower:
            problems.append(f"{upper}.c={ptr[upper].c} != {lower}")
        if ptr[lower].p != upper:
            problems.append(f"{lower}.p={ptr[lower].p} != {upper}")

    # Conditions 3 and 4: pointer typing depending on how ck connects.
    terminus = sequence[-1]
    for ck in sequence:
        pk = ptr[ck].p
        ck_c = ptr[ck].c
        is_terminus_level0 = ck == terminus and ck.level == 0
        if pk is None:
            continue
        lateral = pk in hierarchy.nbrs(ck)
        vertical = pk == hierarchy.parent(ck)
        if not lateral and not vertical:
            problems.append(f"{ck}.p={pk} is neither neighbor nor parent")
            continue
        if lateral:
            if is_terminus_level0:
                if ck_c is not None and ck_c != ck:
                    problems.append(f"lateral terminus {ck} has c={ck_c}")
            else:
                if ck_c is not None and ck_c not in hierarchy.children(ck):
                    problems.append(f"lateral {ck} has non-child c={ck_c}")
        else:  # vertical
            allowed = set(hierarchy.children(ck)) | set(hierarchy.nbrs(ck))
            if is_terminus_level0:
                if ck_c is not None and ck_c != ck and ck_c not in hierarchy.nbrs(ck):
                    problems.append(f"vertical terminus {ck} has c={ck_c}")
            else:
                if ck_c is not None and ck_c not in allowed:
                    problems.append(f"vertical {ck} has c={ck_c} outside children∪nbrs")
    return problems


def check_tracking_path(
    snapshot: SystemSnapshot,
    hierarchy: ClusterHierarchy,
    evader_region: RegionId,
) -> Tuple[Optional[List[ClusterId]], List[str]]:
    """Extract and validate the tracking path for an evader at ``evader_region``.

    Returns:
        ``(path, problems)``; ``path`` is the extracted sequence (or None
        when the root has no child) and ``problems`` is empty iff it is a
        valid tracking path terminating at the evader.
    """
    sequence, terminated = extract_path(snapshot, hierarchy)
    if not sequence:
        return None, ["no tracking path (root has c = ⊥)"]
    problems = check_path_segment(snapshot, hierarchy, sequence)
    if not terminated:
        problems.append(f"path does not terminate in a self-pointer: {sequence}")
    expected_terminus = hierarchy.cluster(evader_region, 0)
    if sequence[-1] != expected_terminus:
        problems.append(
            f"path ends at {sequence[-1]}, evader is at {expected_terminus}"
        )
    if sequence[0].level != hierarchy.max_level:
        problems.append("path does not start at level MAX")
    return sequence, problems

