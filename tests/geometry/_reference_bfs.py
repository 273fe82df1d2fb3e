"""Oracle for the tilings' bulk distance queries.

The breadth-first walk every consumer used to carry privately
(``DistanceTable._bfs_row``, the flooding baseline's ball flood), kept
here as the reference: it walks ``neighbors`` only — never ``distance``,
``distance_row``, ``ring`` or ``ball_size`` — so it is independent of
both the base-class BFS and the grid's closed forms.
"""

from collections import deque


def bfs_row(tiling, src):
    """Distances from ``src`` to every region, dense in ``regions()`` order."""
    index = {rid: i for i, rid in enumerate(tiling.regions())}
    row = [-1] * len(index)
    row[index[src]] = 0
    queue = deque((src,))
    while queue:
        u = queue.popleft()
        for v in tiling.neighbors(u):
            if row[index[v]] < 0:
                row[index[v]] = row[index[u]] + 1
                queue.append(v)
    return row


def scan_ring(tiling, center, d):
    """The full-scan filter over ``regions()``: membership *and* order."""
    row = bfs_row(tiling, center)
    return [rid for rid, dist in zip(tiling.regions(), row) if dist == d]


def scan_ball_size(tiling, center, radius):
    return sum(1 for dist in bfs_row(tiling, center) if dist <= radius)
