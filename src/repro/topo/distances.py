"""Flat region-distance tables, shared content-addressed per tiling.

The C-gcast delay/cost fallback (the distance between cluster heads
outside the enumerated §II-C.3 relations) asks for region-graph
distances pair by pair, on the send path.  :class:`DistanceTable` keeps
one *row* per source region — the flat ``array('i')`` the tiling's own
:meth:`~repro.geometry.tiling.Tiling.distance_row` returns, indexed by
the dense region index (position in ``tiling.regions()`` order) — so a
warm lookup is two dict reads and an array index whatever the tiling's
shape.  How a row is made (one BFS, or a closed form) is the tiling's
business; nothing here walks a graph.

Like route tables (:meth:`~repro.topo.cache.TopologyCache.routes`) the
table rides on the tiling object itself, so every consumer of the same
world shares one table and it dies with the tiling; content addressing
comes for free because tilings themselves are shared via the topology
cache.
"""

from __future__ import annotations

from array import array
from typing import Any, Dict


class DistanceTable:
    """All-pairs region distances as lazily built flat rows.

    Args:
        tiling: Any :class:`~repro.geometry.tiling.Tiling`; its
            ``regions()`` order fixes the dense index.
    """

    __slots__ = ("_tiling", "index", "_rows")

    def __init__(self, tiling: Any) -> None:
        self._tiling = tiling
        #: Region id → dense index.
        self.index: Dict[Any, int] = {
            rid: i for i, rid in enumerate(tiling.regions())
        }
        self._rows: Dict[int, array] = {}

    def row(self, src: Any) -> array:
        """Distances from ``src`` to every region, dense-indexed."""
        i = self.index[src]
        row = self._rows.get(i)
        if row is None:
            row = self._rows[i] = self._tiling.distance_row(src)
        return row

    def distance(self, a: Any, b: Any) -> int:
        """Region-graph distance (== ``tiling.distance(a, b)``)."""
        return self.row(a)[self.index[b]]


def distance_table(tiling: Any) -> DistanceTable:
    """The shared :class:`DistanceTable` for ``tiling`` (by identity).

    Rides on the tiling object (the :meth:`TopologyCache.routes`
    pattern), so every hierarchy/router/experiment over one world
    amortizes the same rows.
    """
    table = getattr(tiling, "_repro_distance_table", None)
    if table is None:
        table = DistanceTable(tiling)
        tiling._repro_distance_table = table
    return table
