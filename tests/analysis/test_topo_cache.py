"""Behavior of the topology cache and the SweepRunner's one pool rule.

Covers the cache's sharing semantics, the full-scan equivalence of the
distance partitions, worker pre-warming, topology-key derivation from
job lists, the per-job setup/run wall split, and when the runner forks.
"""

import pytest

from repro.analysis import (
    JobSpec,
    SweepRunner,
    e1_jobs,
    e8_jobs,
    job,
    scale_jobs,
    topology_keys_of,
)
from repro.geometry import GridTiling, line_tiling
from repro.scenario import ScenarioConfig, build
from repro.topo import (
    TopologyKey,
    grid_key,
    reset_topology_cache,
    shared_grid_hierarchy,
    strip_key,
    topology_cache,
)

TINY_JOBS = [
    job("move_walk", r=2, max_level=2, n_moves=2, seed=1),
    job("move_walk", r=2, max_level=2, n_moves=2, seed=2),
    job("move_walk", r=2, max_level=2, n_moves=2, seed=3),
]


@pytest.fixture(autouse=True)
def fresh_cache():
    """Isolate every test behind its own empty cache."""
    reset_topology_cache()
    yield
    reset_topology_cache()


# ----------------------------------------------------------------------
# Keys
# ----------------------------------------------------------------------
class TestKeys:
    def test_keys_are_frozen_and_hashable(self):
        assert grid_key(2, 4) == TopologyKey("grid", 2, 4)
        assert grid_key(2, 4) != strip_key(2, 4)
        assert len({grid_key(2, 4), grid_key(2, 4), strip_key(2, 4)}) == 2

    def test_key_validation(self):
        with pytest.raises(ValueError):
            TopologyKey("hex", 2, 2)
        with pytest.raises(ValueError):
            grid_key(1, 2)
        with pytest.raises(ValueError):
            grid_key(2, 0)


# ----------------------------------------------------------------------
# Hierarchy sharing
# ----------------------------------------------------------------------
class TestHierarchySharing:
    def test_same_config_shares_one_hierarchy(self):
        first = build(ScenarioConfig(r=2, max_level=2, seed=1))
        second = build(ScenarioConfig(r=2, max_level=2, seed=2))
        assert first.hierarchy is second.hierarchy
        stats = topology_cache().stats
        assert stats.hierarchy_misses == 1
        assert stats.hierarchy_hits == 1

    def test_shared_helpers_memoize(self):
        assert shared_grid_hierarchy(3, 2) is shared_grid_hierarchy(3, 2)


# ----------------------------------------------------------------------
# Distance partitions
# ----------------------------------------------------------------------
class TestDistancePartitions:
    def test_matches_legacy_scan_order(self):
        tiling = GridTiling(8)
        cache = topology_cache()
        center = (3, 3)
        for d in range(tiling.diameter() + 2):
            legacy = [
                u for u in tiling.regions() if tiling.distance(u, center) == d
            ]
            assert cache.regions_at_distance(tiling, center, d) == legacy

    def test_counts_hits_per_center(self):
        # A miss is a distance row the tiling computed: one per centre
        # on a graph tiling, whose BFS rows are memoised ...
        tiling = line_tiling(6)
        cache = topology_cache()
        cache.regions_at_distance(tiling, 0, 1)
        cache.regions_at_distance(tiling, 0, 2)
        cache.regions_at_distance(tiling, 3, 1)
        assert cache.stats.partition_misses == 2
        assert cache.stats.partition_hits == 1

    def test_grid_rings_compute_no_row(self):
        # ... and none on a grid, whose rings are a closed form.
        tiling = GridTiling(4)
        cache = topology_cache()
        cache.regions_at_distance(tiling, (0, 0), 1)
        cache.regions_at_distance(tiling, (0, 0), 2)
        cache.regions_at_distance(tiling, (1, 1), 1)
        assert cache.stats.partition_misses == 0
        assert cache.stats.partition_hits == 3
        assert tiling.rows_computed == 0

    def test_grid_experiments_take_the_closed_forms(self, monkeypatch):
        """E2 and E8 on a grid world never reach the generic walk, nor
        the generic constructor's centroid-scored head choice."""
        from repro.analysis.experiments import (
            run_baseline_comparison,
            run_find_sweep,
        )
        from repro.geometry import Tiling
        from repro.hierarchy import hierarchy

        def generic(*args, **kwargs):
            raise AssertionError("a grid world took the generic path")

        monkeypatch.setattr(Tiling, "distance_row", generic)
        monkeypatch.setattr(hierarchy, "default_head", generic)
        finds = run_find_sweep(
            r=2, max_level=4, distances=[1, 4, 12], seed=21, finds_per_distance=2
        )
        assert len(finds) == 6 and all(f.completed for f in finds)
        rows = run_baseline_comparison(
            r=2, max_level=3, n_moves=6, n_finds=3, find_distance=2, seed=61
        )
        assert rows[-1].algorithm == "flooding" and rows[-1].find_work > 0
        assert topology_cache().stats.partition_misses == 0


# ----------------------------------------------------------------------
# Warm-up + key derivation
# ----------------------------------------------------------------------
class TestWarm:
    def test_warm_builds_once(self):
        cache = topology_cache()
        keys = (grid_key(2, 2), grid_key(2, 3), grid_key(2, 2))
        assert cache.warm(keys) == 2
        assert cache.warm(keys) == 0
        assert cache.stats.hierarchy_misses == 2

    def test_topology_keys_of_canonical_sweeps(self):
        keys = topology_keys_of(e1_jobs(moves=4))
        assert keys == (
            grid_key(2, 2), grid_key(2, 3), grid_key(2, 4), grid_key(2, 5),
            grid_key(3, 2), grid_key(3, 3),
        )
        # scale_probe has no explicit r kwarg; its runner default (r=2)
        # is baked into the derivation.
        assert topology_keys_of(scale_jobs((4, 5))) == (
            grid_key(2, 4), grid_key(2, 5),
        )

    def test_topology_keys_of_skips_underivable_jobs(self):
        jobs = [
            JobSpec(runner="move_walk", kwargs={"n_moves": 3}),  # no world
            job("move_walk", r=1, max_level=2, n_moves=3),  # out of range
            job("move_walk", r=2, max_level=3, n_moves=3),
        ]
        assert topology_keys_of(jobs) == (grid_key(2, 3),)


# ----------------------------------------------------------------------
# SweepRunner: wall split, the one pool rule
# ----------------------------------------------------------------------
@pytest.fixture
def pool_runs(monkeypatch):
    """Job lists handed to the pool, recorded around the real ``_run_pool``."""
    runs = []
    run_pool = SweepRunner._run_pool

    def recording(self, jobs, workers):
        runs.append((list(jobs), workers))
        return run_pool(self, jobs, workers)

    monkeypatch.setattr(SweepRunner, "_run_pool", recording)
    return runs


class TestSweepRunner:
    def test_setup_plus_run_splits_wall(self):
        results = SweepRunner(workers=1).run(TINY_JOBS)
        for result in results:
            assert result.setup_seconds >= 0.0
            assert result.run_seconds >= 0.0
            total = result.setup_seconds + result.run_seconds
            assert total == pytest.approx(result.wall_seconds, abs=1e-6)

    def test_serial_mode_never_forks(self, pool_runs):
        SweepRunner(workers=4, mode="serial").run(TINY_JOBS)
        SweepRunner().run(TINY_JOBS)  # the default is one worker
        SweepRunner(workers=4).run(TINY_JOBS[:1])  # nothing to overlap
        assert pool_runs == []

    def test_forced_parallel_matches_serial(self, pool_runs):
        serial = SweepRunner(workers=1, mode="serial").run(TINY_JOBS)
        parallel = SweepRunner(workers=2, mode="parallel").run(TINY_JOBS)
        assert pool_runs == [(TINY_JOBS, 2)]
        assert [r.value for r in parallel] == [r.value for r in serial]
        assert [r.events for r in parallel] == [r.events for r in serial]

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            SweepRunner(mode="auto")


# ----------------------------------------------------------------------
# E8 amortization (the sweep that motivated the cache)
# ----------------------------------------------------------------------
def test_e8_sweep_amortizes_hierarchy_construction():
    runner = SweepRunner(workers=1)
    runner.run(e8_jobs(levels=(3,)))
    assert topology_cache().stats.hierarchy_misses == 1
    # Re-running the same sweep in the same process builds nothing new.
    runner.run(e8_jobs(levels=(3,)))
    stats = topology_cache().stats
    assert stats.hierarchy_misses == 1
    assert stats.hierarchy_hits >= 1
