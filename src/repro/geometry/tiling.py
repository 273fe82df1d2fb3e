"""Network tilings: region sets with a ``nbr`` relation (§II-A).

Two tilings are provided:

* :class:`GridTiling` — the paper's running example: a ``width × height``
  board of unit squares.  Squares sharing an edge *or a corner* are
  neighbors, so the region-graph distance is the Chebyshev distance and
  the diameter of a ``k × k`` board is ``k − 1``.
* :class:`GraphTiling` — an arbitrary connected region graph given by an
  adjacency mapping; distances come from the base class's BFS rows.

Both expose the same interface, which the hierarchy and communication
layers program against.  Besides the pairwise ``distance`` and the dense
``index``, a tiling answers the bulk questions ``distance_row``, ``ring``
and ``ball_size`` by one memoised breadth-first walk on the base class,
and :class:`GridTiling` in closed form.
"""

from __future__ import annotations

from array import array
from collections import deque
from typing import Dict, Iterable, List, Optional

from .points import Point
from .regions import Region, RegionId


class Tiling:
    """Abstract base: a finite connected set of regions plus ``nbr``."""

    def __init__(self) -> None:
        #: Distance rows this tiling has computed, by BFS or closed form
        #: (what :class:`~repro.topo.cache.TopologyCache` counts as misses).
        self.rows_computed = 0
        self._rows: Dict[RegionId, array] = {}
        self._index: Optional[Dict[RegionId, int]] = None

    def regions(self) -> List[RegionId]:
        """All region ids, in a stable order."""
        raise NotImplementedError

    def index(self, rid: RegionId) -> int:
        """``rid``'s position in ``regions()`` order (else ``KeyError``)."""
        if self._index is None:
            self._index = {u: i for i, u in enumerate(self.regions())}
        return self._index[rid]

    def region(self, rid: RegionId) -> Region:
        """The :class:`Region` for ``rid``."""
        raise NotImplementedError

    def neighbors(self, rid: RegionId) -> List[RegionId]:
        """Regions sharing a boundary point with ``rid`` (excluding itself)."""
        raise NotImplementedError

    def are_neighbors(self, a: RegionId, b: RegionId) -> bool:
        return a != b and b in self.neighbors(a)

    def distance(self, a: RegionId, b: RegionId) -> int:
        """Length of the shortest path in the neighbor graph."""
        raise NotImplementedError

    def diameter(self) -> int:
        """Maximum distance between any two regions (``D`` in the paper)."""
        raise NotImplementedError

    def distance_row(self, src: RegionId) -> array:
        """Distances from ``src`` to every region, dense in ``regions()`` order.

        One BFS over the neighbor graph, memoised per source (callers
        share the row and must not write to it); a region ``src`` cannot
        reach reads ``-1``.  Raises ``KeyError`` for an unknown ``src``.
        """
        row = self._rows.get(src)
        if row is None:
            index = self.index
            row = array("i", [-1]) * len(self.regions())
            row[index(src)] = 0
            frontier = deque((src,))
            while frontier:
                cur = frontier.popleft()
                step = row[index(cur)] + 1
                for nxt in self.neighbors(cur):
                    j = index(nxt)
                    if row[j] < 0:
                        row[j] = step
                        frontier.append(nxt)
            self._rows[src] = row
            self.rows_computed += 1
        return row

    def ring(self, center: RegionId, d: int) -> List[RegionId]:
        """Regions at distance exactly ``d`` from ``center``, in ``regions()`` order."""
        row = self.distance_row(center)
        if d < 0:
            return []
        return [rid for rid, dist in zip(self.regions(), row) if dist == d]

    def ball_size(self, center: RegionId, radius: int) -> int:
        """Number of regions within ``radius`` of ``center``."""
        return sum(1 for dist in self.distance_row(center) if 0 <= dist <= radius)

    def validate(self) -> None:
        """Check the §II-A assumptions: symmetry, irreflexivity, connectivity."""
        ids = self.regions()
        if not ids:
            raise ValueError("tiling has no regions")
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate region ids")
        for rid in ids:
            nbrs = self.neighbors(rid)
            if rid in nbrs:
                raise ValueError(f"region {rid!r} neighbors itself")
            if len(set(nbrs)) != len(nbrs):
                raise ValueError(f"duplicate neighbors at {rid!r}")
            for other in nbrs:
                if rid not in self.neighbors(other):
                    raise ValueError(f"nbr not symmetric between {rid!r}, {other!r}")
        # The walk itself, whatever the shape: this checks ``neighbors``.
        if -1 in Tiling.distance_row(self, ids[0]):
            raise ValueError("region graph is not connected")


class GridTiling(Tiling):
    """Unit-square board with 8-neighborhood (edges and corners).

    Region ids are ``(col, row)`` pairs with ``0 <= col < width`` and
    ``0 <= row < height``; the square for ``(c, r)`` spans
    ``[c, c+1] × [r, r+1]`` and sits at :meth:`index` ``c * height + r``.
    Everything is arithmetic on the pair; the id list is made on the
    first whole-board read.
    """

    def __init__(self, width: int, height: Optional[int] = None) -> None:
        if height is None:
            height = width
        if width < 1 or height < 1:
            raise ValueError("grid dimensions must be positive")
        super().__init__()
        self.width = width
        self.height = height
        self._ids: Optional[List[RegionId]] = None
        self._nbr_cache: Dict[RegionId, List[RegionId]] = {}

    def _id_list(self) -> List[RegionId]:
        if self._ids is None:
            self._ids = [(c, r) for c in range(self.width) for r in range(self.height)]
        return self._ids

    def regions(self) -> List[RegionId]:
        return list(self._id_list())

    def block(self, col: int, row: int, size: int) -> List[RegionId]:
        """The ``size × size`` square with corner ``(col, row)``, in
        ``regions()`` order: slices of this tiling's own id list."""
        ids, height = self._id_list(), self.height
        return [
            rid
            for c in range(col, col + size)
            for rid in ids[c * height + row : c * height + row + size]
        ]

    def index(self, rid: RegionId) -> int:
        if isinstance(rid, tuple) and len(rid) == 2:
            col, row = rid
            if isinstance(col, int) and isinstance(row, int):
                if 0 <= col < self.width and 0 <= row < self.height:
                    return col * self.height + row
        raise KeyError(rid)

    def region(self, rid: RegionId) -> Region:
        self.index(rid)
        col, row = rid
        return Region((col, row), center=Point(col + 0.5, row + 0.5))

    def neighbors(self, rid: RegionId) -> List[RegionId]:
        cached = self._nbr_cache.get(rid)
        if cached is None:
            self.index(rid)
            col, row = rid
            cached = self._nbr_cache[rid] = [
                (c, r)
                for c in range(max(0, col - 1), min(self.width, col + 2))
                for r in range(max(0, row - 1), min(self.height, row + 2))
                if c != col or r != row
            ]
        return list(cached)

    def distance(self, a: RegionId, b: RegionId) -> int:
        self.index(a), self.index(b)  # KeyError off the board
        return max(abs(a[0] - b[0]), abs(a[1] - b[1]))

    def diameter(self) -> int:
        return max(self.width, self.height) - 1

    # Closed forms: the 8-neighborhood BFS distance *is* Chebyshev, so
    # rows, rings and balls need no walk (and no memo).
    def distance_row(self, src: RegionId) -> array:
        self.index(src)
        col0, row0 = src
        dcols = [abs(col - col0) for col in range(self.width)]
        drows = [abs(row - row0) for row in range(self.height)]
        self.rows_computed += 1
        return array("i", [dc if dc > dr else dr for dc in dcols for dr in drows])

    def ring(self, center: RegionId, d: int) -> List[RegionId]:
        self.index(center)
        if not 0 <= d <= self.diameter():
            return []
        col0, row0 = center
        # The square's perimeter, clipped per axis, in (col, row) order:
        # the two end columns whole, the others' top and bottom cells.
        rows = range(max(0, row0 - d), min(self.height - 1, row0 + d) + 1)
        ends = [row for row in (row0 - d, row0 + d) if 0 <= row < self.height]
        return [
            (col, row)
            for col in range(max(0, col0 - d), min(self.width - 1, col0 + d) + 1)
            for row in (rows if abs(col - col0) == d else ends)
        ]

    def ball_size(self, center: RegionId, radius: int) -> int:
        self.index(center)
        if radius < 0:
            return 0
        col0, row0 = center
        cols = min(self.width - 1, col0 + radius) - max(0, col0 - radius) + 1
        rows = min(self.height - 1, row0 + radius) - max(0, row0 - radius) + 1
        return cols * rows


class GraphTiling(Tiling):
    """Arbitrary connected region graph.

    Args:
        adjacency: Mapping of region id to an iterable of neighbor ids.
            The relation is symmetrized automatically.
        centers: Optional mapping of region id to a representative
            :class:`Point`; defaults to distinct points on a line.
    """

    def __init__(
        self,
        adjacency: Dict[RegionId, Iterable[RegionId]],
        centers: Optional[Dict[RegionId, Point]] = None,
    ) -> None:
        super().__init__()
        self._adj: Dict[RegionId, set] = {rid: set() for rid in adjacency}
        for rid, nbrs in adjacency.items():
            for other in nbrs:
                if other == rid:
                    raise ValueError(f"region {rid!r} listed as its own neighbor")
                if other not in self._adj:
                    self._adj[other] = set()
                self._adj[rid].add(other)
                self._adj[other].add(rid)
        self._order = sorted(self._adj)
        self._index = {rid: idx for idx, rid in enumerate(self._order)}
        self._regions = {}
        for rid, idx in self._index.items():
            point = centers[rid] if centers and rid in centers else Point(float(idx), 0.0)
            self._regions[rid] = Region(rid, center=point)
        self._diameter: Optional[int] = None

    def regions(self) -> List[RegionId]:
        return list(self._order)

    def region(self, rid: RegionId) -> Region:
        try:
            return self._regions[rid]
        except KeyError:
            raise KeyError(f"unknown region {rid!r}") from None

    def neighbors(self, rid: RegionId) -> List[RegionId]:
        try:
            return sorted(self._adj[rid])
        except KeyError:
            raise KeyError(f"unknown region {rid!r}") from None

    def distance(self, a: RegionId, b: RegionId) -> int:
        dist = self.distance_row(a)[self.index(b)]  # KeyError: unknown region
        if dist < 0:
            raise ValueError(f"regions {a!r} and {b!r} are disconnected")
        return dist

    def diameter(self) -> int:
        if self._diameter is None:
            self._diameter = max(max(self.distance_row(rid)) for rid in self._order)
        return self._diameter


def line_tiling(length: int) -> GraphTiling:
    """Convenience: a path graph of ``length`` regions (ids ``0..length-1``)."""
    if length < 1:
        raise ValueError("length must be positive")
    adjacency: Dict[RegionId, List[RegionId]] = {i: [] for i in range(length)}
    for i in range(length - 1):
        adjacency[i].append(i + 1)
    centers = {i: Point(float(i) + 0.5, 0.5) for i in range(length)}
    return GraphTiling(adjacency, centers)
