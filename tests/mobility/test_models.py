"""Unit tests for mobility models."""

import random

import pytest

from repro.geometry import GridTiling
from repro.hierarchy import grid_hierarchy
from repro.mobility import (
    BoundaryOscillator,
    FixedPath,
    RandomNeighborWalk,
    worst_boundary_pair,
)


@pytest.fixture()
def tiling():
    return GridTiling(4)


@pytest.fixture()
def rng():
    return random.Random(7)


class TestRandomNeighborWalk:
    def test_always_steps_to_neighbor(self, tiling, rng):
        model = RandomNeighborWalk(start=(0, 0))
        current = model.start_region(tiling, rng)
        for _ in range(50):
            nxt = model.next_region(current, tiling, rng)
            assert tiling.are_neighbors(current, nxt)
            current = nxt

    def test_start_respected(self, tiling, rng):
        assert RandomNeighborWalk(start=(2, 3)).start_region(tiling, rng) == (2, 3)

    def test_deterministic_for_seed(self, tiling):
        a = RandomNeighborWalk(start=(0, 0))
        b = RandomNeighborWalk(start=(0, 0))
        ra, rb = random.Random(1), random.Random(1)
        cur_a = cur_b = (0, 0)
        for _ in range(20):
            cur_a = a.next_region(cur_a, tiling, ra)
            cur_b = b.next_region(cur_b, tiling, rb)
            assert cur_a == cur_b


class TestBoundaryOscillator:
    def test_ping_pong(self, tiling, rng):
        model = BoundaryOscillator((1, 1), (2, 1))
        assert model.start_region(tiling, rng) == (1, 1)
        assert model.next_region((1, 1), tiling, rng) == (2, 1)
        assert model.next_region((2, 1), tiling, rng) == (1, 1)

    def test_non_adjacent_rejected(self, tiling, rng):
        model = BoundaryOscillator((0, 0), (3, 3))
        with pytest.raises(ValueError):
            model.start_region(tiling, rng)


class TestFixedPath:
    def test_replays_path(self, tiling, rng):
        model = FixedPath([(0, 0), (1, 1), (1, 2)])
        assert model.start_region(tiling, rng) == (0, 0)
        assert model.next_region((0, 0), tiling, rng) == (1, 1)
        assert model.next_region((1, 1), tiling, rng) == (1, 2)
        # idles at the end
        assert model.next_region((1, 2), tiling, rng) == (1, 2)

    def test_invalid_hop_rejected(self, tiling, rng):
        model = FixedPath([(0, 0), (2, 2)])
        with pytest.raises(ValueError):
            model.start_region(tiling, rng)

    def test_empty_path_rejected(self):
        with pytest.raises(ValueError):
            FixedPath([])

    def test_repeated_region_idles(self, tiling, rng):
        model = FixedPath([(0, 0), (0, 0), (0, 1)])
        model.start_region(tiling, rng)
        assert model.next_region((0, 0), tiling, rng) == (0, 0)
        assert model.next_region((0, 0), tiling, rng) == (0, 1)


class TestWorstBoundaryPair:
    def test_grid_pair_is_separated_at_all_levels(self):
        h = grid_hierarchy(2, 3)
        a, b = worst_boundary_pair(h)
        assert h.tiling.are_neighbors(a, b)
        for level in range(h.max_level):
            assert h.cluster(a, level) != h.cluster(b, level)

    def test_pair_is_deterministic(self):
        assert worst_boundary_pair(grid_hierarchy(2, 2)) == worst_boundary_pair(
            grid_hierarchy(2, 2)
        )
