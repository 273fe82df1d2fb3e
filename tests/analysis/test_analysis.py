"""Unit tests for accounting, bounds, fitting and reporting."""

import math

import pytest

from repro.analysis import (
    WorkAccountant,
    best_growth_model,
    find_time_bound,
    find_work_bound,
    fit_scale,
    grid_find_work_bound,
    grid_move_work_bound,
    growth_ratio,
    move_time_bound_per_distance,
    move_work_bound_per_distance,
    render_table,
    search_level_for_distance,
)
from repro.core import Grow, Find, grid_schedule
from repro.geocast.cgcast import SendRecord
from repro.hierarchy import ClusterId, grid_params


CID = ClusterId(0, (0, 0))


def record(payload, cost=1.0):
    return SendRecord(0.0, CID, CID, payload, cost, cost)


class TestAccounting:
    def test_classification(self):
        acc = WorkAccountant()
        acc.observe([record(Grow(cid=CID), 3.0)])
        acc.observe([record(Find(cid=CID), 2.0)])
        acc.observe([record("raw", 1.0)])
        assert acc.move_work == 3.0
        assert acc.find_work == 2.0
        assert acc.other_work == 1.0
        assert acc.epoch().total == 6.0
        assert acc.messages == 3

    def test_by_kind(self):
        acc = WorkAccountant()
        acc.observe([record(Grow(cid=CID), 3.0)])
        acc.observe([record(Grow(cid=CID), 2.0)])
        assert acc.by_kind == {"grow": 5.0}
        assert acc.count_by_kind == {"grow": 2}

    def test_epoch_delta(self):
        acc = WorkAccountant()
        acc.observe([record(Grow(cid=CID), 3.0)])
        mark = acc.epoch()
        acc.observe([record(Grow(cid=CID), 4.0)])
        delta = acc.delta_since(mark)
        assert delta.move_work == 4.0
        assert delta.messages == 1
        assert delta.total == 4.0


class TestBounds:
    @pytest.fixture()
    def params(self):
        return grid_params(3, 2)

    def test_move_work_bound_formula(self, params):
        # ω(0) + Σ_{j=1..2} n(j)(1+ω(j))/q(j−1)
        want = 8 + 5 * 9 / 1 + 17 * 9 / 3
        assert move_work_bound_per_distance(params) == pytest.approx(want)

    def test_move_time_bound_positive(self, params):
        schedule = grid_schedule(params, 1.0, 0.5, 3)
        assert move_time_bound_per_distance(params, schedule, 1.0, 0.5) > 0

    def test_find_work_bound_monotone_in_level(self, params):
        bounds = [find_work_bound(params, l) for l in range(3)]
        assert bounds == sorted(bounds)

    def test_find_time_bound_formula(self, params):
        # (δ+e)(n(1) + p(0) + n(0)) at level 1
        assert find_time_bound(params, 1, 1.0, 0.5) == pytest.approx(1.5 * (5 + 2 + 1))

    def test_search_level(self, params):
        assert search_level_for_distance(params, 1) == 0
        assert search_level_for_distance(params, 2) == 1
        assert search_level_for_distance(params, 3) == 1
        assert search_level_for_distance(params, 4) == 2
        assert search_level_for_distance(params, 100) == 2

    def test_grid_corollary_helpers(self):
        assert grid_move_work_bound(3, 8, 10) == pytest.approx(10 * 3 * 2)
        assert grid_find_work_bound(5) == 5
        assert grid_find_work_bound(0) == 1
        assert grid_move_work_bound(3, 0, 10) == 10


class TestFitting:
    def test_fit_scale_exact(self):
        xs = [1.0, 2.0, 3.0]
        ys = [2.0, 4.0, 6.0]
        a, rmse = fit_scale(xs, ys, lambda x: x)
        assert a == pytest.approx(2.0)
        assert rmse == pytest.approx(0.0)

    def test_fit_scale_validation(self):
        with pytest.raises(ValueError):
            fit_scale([], [], lambda x: x)
        with pytest.raises(ValueError):
            fit_scale([1.0], [1.0, 2.0], lambda x: x)
        with pytest.raises(ValueError):
            fit_scale([1.0], [1.0], lambda x: 0.0)

    def test_best_growth_model_linear(self):
        xs = list(range(1, 20))
        assert best_growth_model(xs, [3.0 * x for x in xs]) == "linear"

    def test_best_growth_model_quadratic(self):
        xs = list(range(1, 20))
        assert best_growth_model(xs, [0.5 * x * x for x in xs]) == "quadratic"

    def test_best_growth_model_constant(self):
        xs = list(range(1, 20))
        assert best_growth_model(xs, [7.0 for _ in xs]) == "constant"

    def test_growth_ratio(self):
        xs = [1.0, 2.0, 4.0, 8.0]
        assert growth_ratio(xs, [x**2 for x in xs]) == pytest.approx(2.0)
        assert growth_ratio(xs, list(xs)) == pytest.approx(1.0)

    def test_growth_ratio_validation(self):
        with pytest.raises(ValueError):
            growth_ratio([1.0], [1.0])
        with pytest.raises(ValueError):
            growth_ratio([1.0, 1.0], [1.0, 2.0])


class TestReporting:
    def test_format_table_alignment(self):
        table = render_table(["a", "bb"], [[1, 2.5], [10, 3.25]], title="T")
        lines = table.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert lines[3].endswith("2.50")

    def test_row_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            render_table(["a"], [[1, 2]])
