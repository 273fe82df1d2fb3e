"""ASCII rendering of grid worlds and tracking structures.

Debug-friendly pictures of what the structure looks like right now: the
evader, the tracking path per level, lateral links and secondary
pointers.  Used by examples and handy in test failure triage.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..core.path import extract_path
from ..core.state import SystemSnapshot
from ..geometry.regions import RegionId
from ..geometry.tiling import GridTiling
from ..hierarchy.hierarchy import ClusterHierarchy


def render_grid_world(
    hierarchy: ClusterHierarchy,
    snapshot: SystemSnapshot,
    evader_region: Optional[RegionId] = None,
) -> str:
    """Render a grid world with the tracking path overlaid.

    Cell legend: ``E`` evader, digits = the highest level whose path
    cluster's *head* sits at that region, ``·`` empty.  Level-1 block
    boundaries are drawn with ``|``/``-`` separators.
    """
    tiling = hierarchy.tiling
    if not isinstance(tiling, GridTiling):
        raise TypeError("render_grid_world requires a GridTiling world")
    path, _terminated = extract_path(snapshot, hierarchy)
    head_marks: Dict[RegionId, str] = {}
    for cluster in path:
        head = hierarchy.head(cluster)
        current = head_marks.get(head)
        mark = str(cluster.level)
        if current is None or mark > current:
            head_marks[head] = mark

    block = getattr(hierarchy, "r", 2)
    lines: List[str] = []
    for row in range(tiling.height - 1, -1, -1):
        cells: List[str] = []
        for col in range(tiling.width):
            region = (col, row)
            if evader_region is not None and region == evader_region:
                cell = "E"
            elif region in head_marks:
                cell = head_marks[region]
            else:
                cell = "·"
            cells.append(cell)
            if (col + 1) % block == 0 and col + 1 < tiling.width:
                cells.append("|")
        lines.append(" ".join(cells))
        if row % block == 0 and row > 0:
            lines.append("-" * len(lines[-1]))
    return "\n".join(lines)


def render_path(
    hierarchy: ClusterHierarchy, snapshot: SystemSnapshot
) -> str:
    """One line per path process: level, cluster, pointers, link type."""
    path, terminated = extract_path(snapshot, hierarchy)
    if not path:
        return "(no tracking path)"
    lines = []
    for cluster in path:
        ps = snapshot.pointers[cluster]
        if ps.p is None:
            link = "root"
        elif ps.p in hierarchy.nbrs(cluster):
            link = "lateral"
        else:
            link = "vertical"
        lines.append(
            f"  L{cluster.level} {cluster}  c={ps.c}  p={ps.p}  [{link}]"
        )
    status = "terminated" if terminated else "BROKEN"
    return f"tracking path ({status}):\n" + "\n".join(lines)


def render_pointer_stats(snapshot: SystemSnapshot) -> str:
    """Summary counts of non-bottom pointers by kind."""
    counts = {"c": 0, "p": 0, "nbrptup": 0, "nbrptdown": 0}
    for ps in snapshot.pointers.values():
        if ps.c is not None:
            counts["c"] += 1
        if ps.p is not None:
            counts["p"] += 1
        if ps.nbrptup is not None:
            counts["nbrptup"] += 1
        if ps.nbrptdown is not None:
            counts["nbrptdown"] += 1
    parts = [f"{name}={value}" for name, value in counts.items()]
    return "pointers: " + ", ".join(parts)
