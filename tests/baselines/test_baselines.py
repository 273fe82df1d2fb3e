"""Unit tests for the baseline trackers and locators."""

import random

import pytest

from repro.analysis.crossbase import ANALYTIC_TRACKERS
from repro.baselines import (
    AwerbuchPelegDirectory,
    Cost,
    FloodingFinder,
    HomeAgentLocator,
    NoLateralVineStalk,
)
from repro.baselines.flooding import flood
from repro.core import capture_snapshot, check_tracking_path, lateral_link_count
from repro.geometry import GridTiling, line_tiling
from repro.hierarchy import grid_hierarchy
from repro.mobility import BoundaryOscillator, FixedPath, worst_boundary_pair


class TestNoLateral:
    def test_path_has_no_lateral_links(self):
        h = grid_hierarchy(3, 2)
        system = NoLateralVineStalk(h)
        evader = system.make_evader(
            FixedPath([(4, 4), (4, 5), (5, 5), (5, 4)]), dwell=1e12, start=(4, 4)
        )
        system.run_to_quiescence()
        for _ in range(3):
            evader.step()
            system.run_to_quiescence()
            snap = capture_snapshot(system)
            path, problems = check_tracking_path(snap, h, evader.region)
            assert problems == []
            assert lateral_link_count(snap, h, path) == 0

    def test_finds_still_work(self):
        h = grid_hierarchy(3, 2)
        system = NoLateralVineStalk(h)
        system.make_evader(FixedPath([(4, 4)]), dwell=1e12, start=(4, 4))
        system.run_to_quiescence()
        find_id = system.issue_find((0, 0))
        system.run_to_quiescence()
        assert system.finds.records[find_id].completed

    def test_dithering_costs_more_than_vinestalk(self):
        from repro.analysis import run_dithering

        result = run_dithering(2, 3, oscillations=10)
        assert result.work_without_laterals > 2 * result.work_with_laterals


@pytest.mark.parametrize("key", sorted(ANALYTIC_TRACKERS))
def test_analytic_protocol(key):
    """One life cycle for every cost model: enter, then move/find."""
    model = ANALYTIC_TRACKERS[key](GridTiling(8))
    for refused in (lambda: model.move((1, 0)), lambda: model.find((0, 0))):
        with pytest.raises(RuntimeError, match="enter"):
            refused()
    assert (model.moves, model.finds) == (0, 0)
    entered = model.enter((0, 0))
    moved = [model.move(region) for region in ((1, 0), (2, 0), (2, 1))]
    found = [model.find(origin) for origin in ((7, 7), (2, 2))]
    assert all(isinstance(cost, Cost) for cost in [entered, *moved, *found])
    assert model.location == (2, 1)
    assert (model.moves, model.finds) == (3, 2)
    assert model.total_move_work == sum(c.work for c in [entered, *moved])
    assert model.total_find_work == sum(c.work for c in found)
    assert all(c.work > 0 for c in found)


class TestFloodingFinder:
    @pytest.fixture()
    def tiling(self):
        return GridTiling(16)

    def test_ball_size(self, tiling):
        assert tiling.ball_size((8, 8), 1) == 9
        assert tiling.ball_size((0, 0), 1) == 4  # corner

    @pytest.mark.parametrize(
        "tiling",
        [GridTiling(6), GridTiling(7, 3), line_tiling(9)],
        ids=["grid", "non-square", "line"],
    )
    def test_ball_size_equals_full_scan(self, tiling):
        for center in tiling.regions():
            for radius in range(-1, tiling.diameter() + 3):
                scan = sum(
                    1
                    for region in tiling.regions()
                    if tiling.distance(center, region) <= radius
                )
                assert tiling.ball_size(center, radius) == scan, (center, radius)

    def test_adjacent_find_one_ring(self, tiling):
        cost = flood(tiling, (8, 8), (8, 9))
        assert cost.time == 2 * 1  # one ring: radius 1
        assert cost.work == 9

    def test_radius_doubles_until_found(self, tiling):
        cost = flood(tiling, (8, 8), (8, 13))  # distance 5: radii 1, 2, 4, 8
        assert cost.time == 2 * (1 + 2 + 4 + 8)
        assert cost.work == sum(tiling.ball_size((8, 8), r) for r in (1, 2, 4, 8))

    def test_work_superlinear_in_distance(self, tiling):
        w2 = flood(tiling, (0, 0), (2, 0)).work
        w8 = flood(tiling, (0, 0), (8, 0)).work
        assert w8 / w2 > (8 / 2) * 1.5  # clearly superlinear

    def test_time_accumulates_roundtrips(self, tiling):
        cost = flood(tiling, (8, 8), (8, 11), delta=0.5)  # radii 1, 2, 4
        assert cost.time == 2 * (1 + 2 + 4) * 0.5

    def test_self_find(self, tiling):
        finder = FloodingFinder(tiling)
        finder.enter((3, 3))
        cost = finder.find((3, 3))
        assert (cost.work, cost.time) == (tiling.ball_size((3, 3), 1), 2.0)
        assert finder.move((3, 4)) == Cost(work=0.0, time=0.0)


class TestHomeAgent:
    def test_move_cost_is_distance_to_home(self):
        tiling = GridTiling(9)
        locator = HomeAgentLocator(tiling, home=(4, 4))
        locator.enter((4, 4))
        cost = locator.move((0, 0))
        assert cost.work == 4.0
        assert locator.location == (0, 0)

    def test_find_cost_origin_home_object(self):
        tiling = GridTiling(9)
        locator = HomeAgentLocator(tiling, home=(4, 4))
        locator.enter((0, 0))
        cost = locator.find((8, 8))
        assert cost.work == 4 + 4  # origin→home + home→object

    def test_adjacent_find_still_pays_home_roundtrip(self):
        """The non-locality strawman: d=1 find costs ~D."""
        tiling = GridTiling(9)
        locator = HomeAgentLocator(tiling, home=(4, 4))
        locator.enter((0, 0))
        cost = locator.find((0, 1))  # adjacent to the object
        assert cost.work >= 7

    def test_default_home_is_deterministic(self):
        a = HomeAgentLocator(GridTiling(5)).home
        b = HomeAgentLocator(GridTiling(5)).home
        assert a == b

    def test_totals_accumulate(self):
        """Entering pays the first publication, booked as move work but
        not counted as a move; every move hands the record over."""
        locator = HomeAgentLocator(GridTiling(9), home=(4, 4))
        assert locator.enter((0, 0)).work == 4.0
        cost = locator.move((0, 1))
        locator.find((8, 8))
        assert locator.moves == 1
        assert locator.finds == 1
        assert locator.total_move_work == 4.0 + cost.work == 8.0
        assert locator.handover(cost)


class TestAwerbuchPeleg:
    @pytest.fixture()
    def directory(self):
        d = AwerbuchPelegDirectory(GridTiling(16), delta=1.0)
        d.enter((8, 8))
        return d

    def test_requires_grid(self):
        with pytest.raises(TypeError):
            AwerbuchPelegDirectory(line_tiling(8))

    def test_single_move_is_cheap(self, directory):
        cost = directory.move((8, 9))
        # Lazy updates: only low levels touched for a 1-step move.
        assert cost.work < 30

    def test_long_drift_updates_high_levels(self, directory):
        total = 0.0
        region = (8, 8)
        handovers = 0
        for col in range(9, 16):
            region = (col, 8)
            cost = directory.move(region)
            total += cost.work
            handovers += directory.handover(cost)
        short = AwerbuchPelegDirectory(GridTiling(16))
        short.enter((8, 8))
        single = short.move((9, 8)).work
        assert total > 4 * single  # drift forces directory rewrites
        assert handovers > 0  # a rewrite above level 0 is a handover

    def test_find_reaches_object(self, directory):
        directory.move((8, 9))
        cost = directory.find((0, 0))
        assert cost.work > 0

    def test_local_find_cheaper_than_far_find(self, directory):
        near = directory.find((8, 10)).work
        far = directory.find((0, 0)).work
        assert near < far


class TestWorkloadComparison:
    def run_at(self, max_level):
        from repro.analysis import run_baseline_comparison

        rows = run_baseline_comparison(
            2, max_level, n_moves=12, n_finds=6, find_distance=2, seed=3
        )
        return {row.algorithm: row for row in rows}

    def test_all_algorithms_reported(self):
        by_name = self.run_at(3)
        assert set(by_name) == {"vinestalk", "home-agent", "awerbuch-peleg", "flooding"}

    def test_vinestalk_work_is_diameter_independent(self):
        """The locality claim: same local workload, growing world.

        VINESTALK's cost stays flat as D quadruples; the home-agent
        rendezvous grows roughly linearly with D, and crosses over.
        """
        small, large = self.run_at(3), self.run_at(5)  # D = 7 vs 31
        assert large["vinestalk"].total <= small["vinestalk"].total * 1.1
        assert large["home-agent"].total >= small["home-agent"].total * 2.5
        # Crossover: the strawman wins the tiny world, loses the big one.
        assert small["home-agent"].total < small["vinestalk"].total
        assert large["home-agent"].total > large["vinestalk"].total

    def test_flooding_depends_on_find_distance_only(self):
        small, large = self.run_at(3), self.run_at(4)
        assert small["flooding"].find_work == large["flooding"].find_work
        assert small["flooding"].move_work == 0.0
