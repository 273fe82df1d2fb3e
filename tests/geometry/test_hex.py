"""Unit tests for the hexagonal tiling."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from examples.irregular_world import HexTiling


@pytest.fixture(scope="module")
def hex3():
    return HexTiling(3)


def test_region_count(hex3):
    # Centered hexagonal number: 1 + 3·R·(R+1).
    assert hex3.size() == 1 + 3 * 3 * 4
    assert HexTiling(1).size() == 7


def test_validates(hex3):
    hex3.validate()


def test_center_has_six_neighbors(hex3):
    assert len(hex3.neighbors((0, 0))) == 6


def test_corner_has_three_neighbors(hex3):
    assert len(hex3.neighbors((3, 0))) == 3


def test_diameter(hex3):
    assert hex3.diameter() == 6
    assert hex3.distance((-3, 0), (3, 0)) == 6


def test_distance_examples(hex3):
    assert hex3.distance((0, 0), (1, -1)) == 1
    assert hex3.distance((0, 0), (2, -1)) == 2
    assert hex3.distance((-1, 2), (-1, 2)) == 0


def test_unknown_region_raises(hex3):
    with pytest.raises(KeyError):
        hex3.neighbors((9, 9))
    with pytest.raises(KeyError):
        hex3.distance((0, 0), (9, 9))


def test_invalid_radius():
    with pytest.raises(ValueError):
        HexTiling(0)


def test_centers_distinct(hex3):
    centers = [hex3.region(rid).center for rid in hex3.regions()]
    assert len(set(centers)) == len(centers)


hex_coord = st.integers(min_value=-3, max_value=3)


@settings(max_examples=40)
@given(q1=hex_coord, r1=hex_coord, q2=hex_coord, r2=hex_coord)
def test_distance_is_a_metric(q1, r1, q2, r2):
    tiling = HexTiling(3)
    regions = set(tiling.regions())
    a, b = (q1, r1), (q2, r2)
    if a not in regions or b not in regions:
        return
    assert tiling.distance(a, b) == tiling.distance(b, a)
    assert (tiling.distance(a, b) == 0) == (a == b)
    assert tiling.distance(a, b) <= tiling.distance(a, (0, 0)) + tiling.distance(
        (0, 0), b
    )


@settings(max_examples=40)
@given(q=hex_coord, r=hex_coord)
def test_neighbors_are_distance_one(q, r):
    tiling = HexTiling(3)
    if (q, r) not in set(tiling.regions()):
        return
    for nbr in tiling.neighbors((q, r)):
        assert tiling.distance((q, r), nbr) == 1
