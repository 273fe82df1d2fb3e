"""Unit and property tests for tilings (§II-A)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import GraphTiling, GridTiling, Point, line_tiling


class TestGridTiling:
    def test_region_count(self):
        assert len(GridTiling(4).regions()) == 16
        assert len(GridTiling(3, 2).regions()) == 6

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            GridTiling(0)

    def test_interior_region_has_eight_neighbors(self):
        t = GridTiling(3)
        assert len(t.neighbors((1, 1))) == 8

    def test_corner_region_has_three_neighbors(self):
        t = GridTiling(3)
        assert sorted(t.neighbors((0, 0))) == [(0, 1), (1, 0), (1, 1)]

    def test_edge_region_has_five_neighbors(self):
        t = GridTiling(3)
        assert len(t.neighbors((1, 0))) == 5

    def test_diagonal_squares_are_neighbors(self):
        t = GridTiling(3)
        assert t.are_neighbors((0, 0), (1, 1))
        assert not t.are_neighbors((0, 0), (2, 2))

    def test_distance_is_chebyshev(self):
        t = GridTiling(5)
        assert t.distance((0, 0), (3, 1)) == 3
        assert t.distance((4, 4), (4, 4)) == 0
        assert t.distance((0, 4), (4, 0)) == 4

    def test_diameter(self):
        assert GridTiling(5).diameter() == 4
        assert GridTiling(3, 7).diameter() == 6

    def test_unknown_region_raises(self):
        t = GridTiling(2)
        with pytest.raises(KeyError):
            t.neighbors((9, 9))
        with pytest.raises(KeyError):
            t.distance((0, 0), (9, 9))
        with pytest.raises(KeyError):
            t.region((9, 9))

    def test_validate_passes(self):
        GridTiling(4).validate()

    @given(
        st.integers(min_value=0, max_value=5),
        st.integers(min_value=0, max_value=5),
        st.integers(min_value=0, max_value=5),
        st.integers(min_value=0, max_value=5),
    )
    def test_distance_is_a_metric(self, ax, ay, bx, by):
        t = GridTiling(6)
        a, b = (ax, ay), (bx, by)
        assert t.distance(a, b) == t.distance(b, a)
        assert (t.distance(a, b) == 0) == (a == b)
        c = (0, 0)
        assert t.distance(a, b) <= t.distance(a, c) + t.distance(c, b)

    @settings(max_examples=30)
    @given(
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=0, max_value=4),
    )
    def test_distance_one_iff_neighbors(self, ax, ay):
        t = GridTiling(5)
        a = (ax, ay)
        for b in t.regions():
            assert (t.distance(a, b) == 1) == t.are_neighbors(a, b)


class TestGraphTiling:
    def test_symmetrizes_adjacency(self):
        t = GraphTiling({0: [1], 1: [], 2: [1]})
        assert t.neighbors(1) == [0, 2]
        assert t.are_neighbors(1, 0)

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            GraphTiling({0: [0]})

    def test_bfs_distance(self):
        t = line_tiling(5)
        assert t.distance(0, 4) == 4
        assert t.distance(2, 2) == 0

    def test_disconnected_distance_raises(self):
        t = GraphTiling({0: [1], 2: [3]})
        with pytest.raises(ValueError):
            t.distance(0, 3)

    def test_disconnected_fails_validation(self):
        t = GraphTiling({0: [1], 2: [3]})
        with pytest.raises(ValueError):
            t.validate()

    def test_diameter_of_line(self):
        assert line_tiling(7).diameter() == 6

    def test_line_validates(self):
        line_tiling(4).validate()

    def test_unknown_region_raises(self):
        t = line_tiling(3)
        with pytest.raises(KeyError):
            t.neighbors(99)

    def test_cycle_distances(self):
        n = 6
        t = GraphTiling({i: [(i + 1) % n] for i in range(n)})
        assert t.distance(0, 3) == 3
        assert t.distance(0, 5) == 1
        assert t.diameter() == 3

    def test_custom_centers_respected(self):
        t = GraphTiling({0: [1]}, centers={0: Point(5, 5)})
        assert t.region(0).center == Point(5, 5)
