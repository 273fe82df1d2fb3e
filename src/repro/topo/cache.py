"""The per-process topology cache.

One :class:`TopologyCache` lives per process (:func:`topology_cache`).
It memoizes the expensive, purely-topological computations every job
used to redo from scratch, and counts the one the tilings now own:

* **hierarchy construction** — ``hierarchy(key)`` builds the grid/strip
  hierarchy for a :class:`~repro.topo.keys.TopologyKey` once; later
  builds of the same key return the same object.  Hierarchies are
  immutable after construction (their internal ``_nbrs_cache`` etc. are
  pure memoization), so sharing is trace-safe.
* **route tables** — ``routes(tiling)`` hands out one shared
  :class:`~repro.topo.routes.RouteTable` per tiling object, so every
  geocast router over the same world amortizes the same BFS trees.
* **distance rings** — ``regions_at_distance(tiling, center, d)`` asks
  the tiling for its ring (closed form on a grid, one memoised BFS row
  per centre elsewhere) and counts which of the two happened.

``warm(keys)`` pre-builds hierarchies for a sweep's distinct topology
keys — the pool-worker initializer calls it so forked/spawned workers
start hot.

The cache changes *when* topology work happens, never *what* a run
computes: the golden A/B tests compare a cached run against the same
run on an explicit ``ScenarioConfig(hierarchy=grid_hierarchy(...))`` —
a world the cache never saw.

This module also hosts the setup-wall accumulator
(:func:`charge_setup` / :func:`setup_seconds_total`):
``repro.scenario.build`` charges world-construction time to it, and the
sweep runner reads the delta around each job to split per-job wall into
setup vs run.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List

from ..sim.engine import gc_paused
from .keys import TopologyKey
from .routes import RouteTable

# ----------------------------------------------------------------------
# Setup-wall accounting
# ----------------------------------------------------------------------
_SETUP_SECONDS = 0.0


def setup_seconds_total() -> float:
    """Cumulative world-construction seconds charged in this process."""
    return _SETUP_SECONDS


@contextmanager
def charge_setup():
    """Context manager: charge the enclosed wall time as setup."""
    global _SETUP_SECONDS
    start = time.perf_counter()
    try:
        yield
    finally:
        _SETUP_SECONDS += time.perf_counter() - start


# ----------------------------------------------------------------------
# The cache
# ----------------------------------------------------------------------
@dataclass
class CacheStats:
    """Hit/miss counters, mostly for tests and the bench artifact."""

    hierarchy_hits: int = 0
    hierarchy_misses: int = 0
    partition_hits: int = 0
    partition_misses: int = 0


@dataclass
class TopologyCache:
    """Content-addressed store of hierarchies and route tables."""

    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self) -> None:
        self._hierarchies: Dict[TopologyKey, Any] = {}

    # -- hierarchies ----------------------------------------------------
    def hierarchy(self, key: TopologyKey) -> Any:
        """The (shared) hierarchy for ``key``, building it GC-paused on first use."""
        cached = self._hierarchies.get(key)
        if cached is not None:
            self.stats.hierarchy_hits += 1
            return cached
        self.stats.hierarchy_misses += 1
        with gc_paused():  # a build only allocates: a pass would free nothing
            built = _build_hierarchy(key)
        self._hierarchies[key] = built
        return built

    def grid(self, r: int, max_level: int) -> Any:
        """Shared base-``r`` grid hierarchy (``grid_hierarchy`` memoized)."""
        from .keys import grid_key

        return self.hierarchy(grid_key(r, max_level))

    def strip(self, r: int, max_level: int) -> Any:
        """Shared strip hierarchy (``strip_hierarchy`` memoized)."""
        from .keys import strip_key

        return self.hierarchy(strip_key(r, max_level))

    # -- route tables ---------------------------------------------------
    def routes(self, tiling: Any) -> RouteTable:
        """The shared :class:`RouteTable` for ``tiling`` (by identity).

        The table rides on the tiling object itself (same pure-memoization
        style as the tilings' internal ``_nbr_cache``), so it is shared by
        every router over that tiling and dies with it — no global map
        that would pin tilings alive.
        """
        table = getattr(tiling, "_repro_route_table", None)
        if table is None:
            table = RouteTable(tiling)
            tiling._repro_route_table = table
        return table

    # -- distance rings -------------------------------------------------
    def regions_at_distance(self, tiling: Any, center: Any, distance: int) -> List:
        """Regions exactly ``distance`` from ``center``, in region order.

        Byte-identical to the full scan
        ``[u for u in tiling.regions() if tiling.distance(u, center) == d]``
        (same membership, same order): the tiling's own
        :meth:`~repro.geometry.tiling.Tiling.ring`.  A query for which
        the tiling had to compute a distance row is a miss, any other a
        hit — on a grid every query is a hit.
        """
        computed = tiling.rows_computed
        ring = tiling.ring(center, distance)
        if tiling.rows_computed > computed:
            self.stats.partition_misses += 1
        else:
            self.stats.partition_hits += 1
        return ring

    # -- warm-up --------------------------------------------------------
    def warm(self, keys: Iterable[TopologyKey]) -> int:
        """Pre-build the hierarchies of ``keys`` (GC-paused, as every
        :meth:`hierarchy` miss is).

        Called by the pool-worker initializer with a sweep's distinct
        topology keys so workers pay construction once, before jobs
        arrive.  A cluster's neighbors are computed and memoised on
        first use, so a run pays only for the clusters it touches.
        Returns how many hierarchies were newly built.
        """
        built = 0
        for key in dict.fromkeys(keys):  # de-dup, stable order
            if key not in self._hierarchies:
                self.hierarchy(key)
                built += 1
        return built


def _build_hierarchy(key: TopologyKey) -> Any:
    """Construct the hierarchy a key describes (pure function of the key)."""
    if key.kind == "grid":
        from ..hierarchy.grid import grid_hierarchy

        return grid_hierarchy(key.r, key.max_level)
    if key.kind == "strip":
        from ..hierarchy.strip import strip_hierarchy

        return strip_hierarchy(key.r, key.max_level)
    raise ValueError(f"unknown topology kind {key.kind!r}")  # pragma: no cover


def shared_grid_hierarchy(r: int, max_level: int) -> Any:
    """The process cache's (shared) grid hierarchy."""
    return topology_cache().grid(r, max_level)


def shared_strip_hierarchy(r: int, max_level: int) -> Any:
    """The process cache's (shared) strip hierarchy."""
    return topology_cache().strip(r, max_level)


# ----------------------------------------------------------------------
# Process singleton
# ----------------------------------------------------------------------
_CACHE: TopologyCache = TopologyCache()


def topology_cache() -> TopologyCache:
    """The per-process :class:`TopologyCache` singleton."""
    return _CACHE


def reset_topology_cache() -> TopologyCache:
    """Replace the singleton with an empty cache (returns the new one)."""
    global _CACHE
    _CACHE = TopologyCache()
    return _CACHE
