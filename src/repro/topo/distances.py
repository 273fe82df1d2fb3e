"""Flat region-distance rows (``Tiling.distance_row``), one shared table
per tiling: a warm lookup is a dict read and an array index.  The run
path asks the tiling itself; the speed bench times these lookups."""

from __future__ import annotations

from array import array
from typing import Any, Dict


class DistanceTable:
    """All-pairs region distances as lazily built flat rows."""

    __slots__ = ("_tiling", "_rows")

    def __init__(self, tiling: Any) -> None:
        self._tiling = tiling
        self._rows: Dict[Any, array] = {}

    def row(self, src: Any) -> array:
        """Distances from ``src`` to every region, dense-indexed."""
        row = self._rows.get(src)
        if row is None:
            row = self._rows[src] = self._tiling.distance_row(src)
        return row

    def distance(self, a: Any, b: Any) -> int:
        """Region-graph distance (== ``tiling.distance(a, b)``)."""
        return self.row(a)[self._tiling.index(b)]


def distance_table(tiling: Any) -> DistanceTable:
    """The shared :class:`DistanceTable` for ``tiling``, riding on the
    tiling object (the :meth:`TopologyCache.routes` pattern)."""
    table = getattr(tiling, "_repro_distance_table", None)
    if table is None:
        table = tiling._repro_distance_table = DistanceTable(tiling)
    return table
