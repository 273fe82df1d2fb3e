"""Smoke and shape tests for the experiment runners (the bench backends)."""

import pytest

from repro.analysis import (
    mean_find_work_by_distance,
    run_baseline_comparison,
    run_dithering,
    run_find_sweep,
    run_invariant_watch,
    run_move_walk,
)
from repro.analysis.experiments import (
    run_concurrent,
    run_emulation_recovery,
    run_equivalence_check,
)


class TestMoveWalk:
    def test_result_structure(self):
        result = run_move_walk(2, 2, n_moves=10, seed=1)
        assert result.moves == 10
        assert len(result.per_move_work) == 10
        assert result.total_move_work == pytest.approx(sum(result.per_move_work))
        assert result.work_per_distance == pytest.approx(result.total_move_work / 10)
        assert result.diameter == 3

    def test_work_below_bound(self):
        result = run_move_walk(3, 2, n_moves=15, seed=2)
        assert 0 < result.work_per_distance <= result.bound_per_distance

    def test_deterministic(self):
        a = run_move_walk(2, 2, n_moves=8, seed=3)
        b = run_move_walk(2, 2, n_moves=8, seed=3)
        assert a.per_move_work == b.per_move_work

    def test_settle_times_positive(self):
        result = run_move_walk(2, 2, n_moves=5, seed=4)
        assert 0 < result.mean_settle_time <= result.max_settle_time


class TestFindSweep:
    def test_all_finds_complete_and_grouping(self):
        results = run_find_sweep(3, 2, [1, 2, 3], seed=5, finds_per_distance=2)
        assert len(results) == 6
        assert all(r.completed for r in results)
        pairs = mean_find_work_by_distance(results)
        assert [d for d, _ in pairs] == [1, 2, 3]

    def test_unreachable_distances_skipped(self):
        # On a 4x4 world the max distance from the center is 2.
        results = run_find_sweep(2, 2, [1, 2, 50], seed=6)
        assert {r.distance for r in results} <= {1, 2}

    def test_search_level_matches_q(self):
        results = run_find_sweep(3, 2, [1, 2, 4], seed=7, finds_per_distance=1)
        by_d = {r.distance: r for r in results}
        assert by_d[1].search_level == 0
        assert by_d[2].search_level == 1
        assert by_d[4].search_level == 2


class TestOtherRunners:
    def test_dithering_advantage_positive(self):
        result = run_dithering(2, 2, oscillations=6)
        assert result.work_with_laterals > 0
        assert result.advantage >= 1.0

    def test_invariant_watch_clean(self):
        result = run_invariant_watch(2, 2, n_moves=10, seed=8)
        assert result.violations == 0
        assert result.max_grow_outstanding == 1

    def test_equivalence_check_zero_mismatches(self):
        checked, mismatches = run_equivalence_check(2, 2, n_moves=6, seed=9)
        assert checked >= 24
        assert mismatches == 0

    def test_concurrent_runner(self):
        result = run_concurrent(2, 2, n_moves=8, n_finds=3, seed=10)
        assert result.finds_issued == 3
        assert result.success_rate == 1.0
        assert result.max_search_overshoot <= 1

    def test_emulation_recovery_runner(self):
        result = run_emulation_recovery(2, 2, t_restart=2.0, seed=11)
        assert result.vsa_failures >= 1
        assert result.path_recovered

    def test_baseline_comparison_rows(self):
        rows = run_baseline_comparison(2, 3, n_moves=6, n_finds=2,
                                       find_distance=1, seed=12)
        names = [row.algorithm for row in rows]
        assert names == ["vinestalk", "home-agent", "awerbuch-peleg", "flooding"]
        assert all(row.total >= 0 for row in rows)

    def test_build_system_shim_is_gone(self):
        import repro.analysis
        import repro.analysis.experiments

        assert not hasattr(repro.analysis, "build_system")
        assert not hasattr(repro.analysis.experiments, "build_system")
        assert "build_system" not in repro.analysis.__all__
