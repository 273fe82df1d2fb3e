"""Unit tests for plane geometry primitives."""

import pytest

from repro.geometry import Point, centroid


def test_points_are_hashable_and_comparable():
    assert len({Point(0, 0), Point(0, 0), Point(1, 0)}) == 2
    assert Point(0, 1) < Point(1, 0)


def test_centroid():
    pts = [Point(0, 0), Point(2, 0), Point(2, 2), Point(0, 2)]
    assert centroid(pts) == Point(1, 1)


def test_centroid_empty_raises():
    with pytest.raises(ValueError):
        centroid([])
