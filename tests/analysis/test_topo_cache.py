"""Behavior of the topology cache and the SweepRunner auto heuristic.

Covers the cache's sharing/bypass semantics, the legacy-equivalence of
the distance partitions, worker pre-warming, topology-key derivation
from job lists, the per-job setup/run wall split, and the runner's
serial-fallback / kill-switch logic.
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
from repro.geometry import GridTiling
from repro.scenario import ScenarioConfig, build
from repro.topo import (
    TopologyKey,
    bypass,
    cache_enabled,
    grid_key,
    key_for_config,
    reset_topology_cache,
    set_cache_enabled,
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
    """Isolate every test behind its own empty cache, cache enabled."""
    reset_topology_cache()
    set_cache_enabled(True)
    yield
    reset_topology_cache()
    set_cache_enabled(True)


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

    def test_key_for_config(self):
        assert key_for_config(ScenarioConfig(r=3, max_level=2)) == grid_key(3, 2)
        explicit = ScenarioConfig(hierarchy=shared_grid_hierarchy(2, 2))
        assert key_for_config(explicit) is None


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

    def test_bypass_builds_fresh_worlds(self):
        with bypass():
            assert not cache_enabled()
            first = build(ScenarioConfig(r=2, max_level=2, seed=1))
            second = build(ScenarioConfig(r=2, max_level=2, seed=2))
        assert cache_enabled()
        assert first.hierarchy is not second.hierarchy
        assert topology_cache().stats.hierarchy_misses == 0

    def test_shared_helpers_memoize(self):
        assert shared_grid_hierarchy(3, 2) is shared_grid_hierarchy(3, 2)
        with bypass():
            assert shared_grid_hierarchy(3, 2) is not shared_grid_hierarchy(3, 2)


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
        tiling = GridTiling(4)
        cache = topology_cache()
        cache.regions_at_distance(tiling, (0, 0), 1)
        cache.regions_at_distance(tiling, (0, 0), 2)
        cache.regions_at_distance(tiling, (1, 1), 1)
        assert cache.stats.partition_misses == 2
        assert cache.stats.partition_hits == 1


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
# SweepRunner: wall split, auto heuristic, kill-switch
# ----------------------------------------------------------------------
class TestSweepRunner:
    def test_setup_plus_run_splits_wall(self):
        results = SweepRunner(workers=1).run(TINY_JOBS)
        for result in results:
            assert result.setup_seconds >= 0.0
            assert result.run_seconds >= 0.0
            total = result.setup_seconds + result.run_seconds
            assert total == pytest.approx(result.wall_seconds, abs=1e-6)

    def test_auto_falls_back_on_single_core(self, monkeypatch):
        monkeypatch.setattr("repro.analysis.parallel.os.cpu_count", lambda: 1)
        runner = SweepRunner(workers=4)
        results = runner.run(TINY_JOBS)
        assert runner.last_mode == "serial-fallback"
        assert len(results) == len(TINY_JOBS)

    def test_auto_falls_back_on_tiny_sweeps(self, monkeypatch):
        # Plenty of cores, but the probe job shows the sweep is far too
        # small to amortize a pool: stay in-process.
        monkeypatch.setattr("repro.analysis.parallel.os.cpu_count", lambda: 8)
        runner = SweepRunner(workers=4)
        results = runner.run(TINY_JOBS)
        assert runner.last_mode == "serial-fallback"
        serial = SweepRunner(workers=1, mode="serial").run(TINY_JOBS)
        assert [r.value for r in results] == [r.value for r in serial]

    def test_kill_switch_beats_explicit_workers(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL", "0")
        runner = SweepRunner(workers=4, mode="parallel")
        runner.run(TINY_JOBS)
        assert runner.last_mode == "serial"
        assert "kill-switch" in runner.last_mode_reason

    def test_env_request_forces_pool_past_fallbacks(self, monkeypatch):
        # REPRO_PARALLEL=2 is an explicit operator request: auto mode
        # must skip both the cpu-count and probe fallbacks and fork,
        # even on a single-core box with a tiny sweep.
        monkeypatch.setattr("repro.analysis.parallel.os.cpu_count", lambda: 1)
        monkeypatch.setenv("REPRO_PARALLEL", "2")
        runner = SweepRunner()
        serial = SweepRunner(workers=1, mode="serial").run(TINY_JOBS)
        results = runner.run(TINY_JOBS)
        assert runner.last_mode == "processes"
        assert "forces the pool" in runner.last_mode_reason
        assert [r.value for r in results] == [r.value for r in serial]

    def test_env_one_does_not_force(self, monkeypatch):
        monkeypatch.setattr("repro.analysis.parallel.os.cpu_count", lambda: 1)
        monkeypatch.setenv("REPRO_PARALLEL", "1")
        runner = SweepRunner()
        runner.run(TINY_JOBS)
        assert runner.last_mode == "serial"

    def test_fallback_reasons_recorded(self, monkeypatch):
        monkeypatch.setattr("repro.analysis.parallel.os.cpu_count", lambda: 1)
        runner = SweepRunner(workers=4)
        runner.run(TINY_JOBS)
        assert runner.last_mode == "serial-fallback"
        assert "cpu_count=1" in runner.last_mode_reason

        monkeypatch.setattr("repro.analysis.parallel.os.cpu_count", lambda: 8)
        runner = SweepRunner(workers=4)
        runner.run(TINY_JOBS)
        assert runner.last_mode == "serial-fallback"
        assert "probe extrapolation" in runner.last_mode_reason

    def test_serial_mode_never_forks(self):
        runner = SweepRunner(workers=4, mode="serial")
        runner.run(TINY_JOBS)
        assert runner.last_mode == "serial"

    def test_forced_parallel_matches_serial(self):
        serial = SweepRunner(workers=1, mode="serial").run(TINY_JOBS)
        runner = SweepRunner(workers=2, mode="parallel")
        parallel = runner.run(TINY_JOBS)
        assert runner.last_mode == "processes"
        assert [r.value for r in parallel] == [r.value for r in serial]
        assert [r.events for r in parallel] == [r.events for r in serial]


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
