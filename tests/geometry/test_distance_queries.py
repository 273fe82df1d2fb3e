"""``distance_row`` / ``ring`` / ``ball_size`` on every tiling shape.

The base class answers them with one BFS, :class:`GridTiling` in closed
form; both must equal the oracle walk in ``_reference_bfs`` — rings in
*order* too, because the seeded ``rng.choice`` of E2/E8 draws from them.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import GraphTiling, GridTiling, HexTiling, Tiling

from ._reference_bfs import bfs_row, scan_ball_size, scan_ring


@st.composite
def grids(draw):
    """A rectangular grid, square or not."""
    side = st.integers(min_value=1, max_value=9)
    return GridTiling(draw(side), draw(side))


@st.composite
def connected_graphs(draw):
    """A random tree plus random chords: connected by construction."""
    n = draw(st.integers(min_value=1, max_value=14))
    adjacency = {0: []}
    for node in range(1, n):
        adjacency[node] = [draw(st.integers(min_value=0, max_value=node - 1))]
    for _ in range(draw(st.integers(min_value=0, max_value=n))):
        a = draw(st.integers(min_value=0, max_value=n - 1))
        b = draw(st.integers(min_value=0, max_value=n - 1))
        if a != b:
            adjacency[a].append(b)
    return GraphTiling(adjacency)


hexes = st.builds(HexTiling, st.integers(min_value=1, max_value=4))
tilings = st.one_of(grids(), connected_graphs(), hexes)


@given(tiling=tilings, data=st.data())
@settings(max_examples=150, deadline=None)
def test_queries_equal_the_reference_walk(tiling, data):
    center = data.draw(st.sampled_from(tiling.regions()))
    row = bfs_row(tiling, center)
    assert list(tiling.distance_row(center)) == row
    assert row == [tiling.distance(center, u) for u in tiling.regions()]
    for d in range(-1, max(row) + 3):
        assert tiling.ring(center, d) == scan_ring(tiling, center, d)
        assert tiling.ball_size(center, d) == scan_ball_size(tiling, center, d)


SHAPES = {
    "grid": lambda: GridTiling(5, 3),
    "graph": lambda: GraphTiling({0: [1], 1: [2], 2: [3, 4], 4: [0]}),
    "hex": lambda: HexTiling(2),
}


@pytest.mark.parametrize("shape", SHAPES)
def test_queries_fail_closed(shape):
    tiling = SHAPES[shape]()
    center = tiling.regions()[0]
    world = len(tiling.regions())
    for unknown in ((99, 99), "nowhere"):
        for query in (
            lambda: tiling.distance_row(unknown),
            lambda: tiling.ring(unknown, 1),
            lambda: tiling.ring(unknown, -1),
            lambda: tiling.ball_size(unknown, 1),
            lambda: tiling.ball_size(unknown, -1),
        ):
            with pytest.raises(KeyError) as raised:
                query()
            assert raised.value.args == (unknown,)  # as ``index[unknown]``
    past = tiling.diameter() + 1
    assert tiling.ring(center, -1) == []
    assert tiling.ring(center, past) == []
    assert tiling.ring(center, 10**9) == []
    assert tiling.ball_size(center, -1) == 0
    assert tiling.ball_size(center, past) == world
    assert tiling.ball_size(center, 10**9) == world
    assert tiling.ring(center, 0) == [center]
    assert tiling.ball_size(center, 0) == 1


def test_grid_answers_without_a_row_or_a_walk(monkeypatch):
    def walked(self, src):
        raise AssertionError("GridTiling reached the base-class BFS")

    monkeypatch.setattr(Tiling, "distance_row", walked)
    tiling = GridTiling(7, 3)
    for center in tiling.regions():
        for d in range(-1, 9):
            tiling.ring(center, d)
            tiling.ball_size(center, d)
    assert tiling.rows_computed == 0
    tiling.distance_row((6, 2))
    assert tiling.rows_computed == 1


def test_non_square_rings_clip_per_axis():
    tiling = GridTiling(7, 3)
    # Taller than the board: only the two end columns survive, whole.
    assert tiling.ring((3, 1), 3) == [(0, 0), (0, 1), (0, 2), (6, 0), (6, 1), (6, 2)]
    # Wider than the column range on one side only.
    assert tiling.ring((1, 0), 2) == [(0, 2), (1, 2), (2, 2), (3, 0), (3, 1), (3, 2)]
    assert tiling.ring((0, 0), 6) == [(6, 0), (6, 1), (6, 2)]
    assert tiling.ball_size((3, 1), 3) == 21
    assert tiling.ball_size((0, 0), 1) == 4


def test_base_rows_are_memoised_per_source():
    tiling = HexTiling(2)
    first = tiling.distance_row((0, 0))
    assert tiling.distance_row((0, 0)) is first
    tiling.ring((0, 0), 1), tiling.ball_size((0, 0), 2)
    assert tiling.rows_computed == 1
