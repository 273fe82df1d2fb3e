"""Unit tests for the atomic reference model (§IV-C definitions)."""

import pytest

from repro.core import (
    AtomicModelError,
    SystemSnapshot,
    atomic_move,
    atomic_move_seq,
    check_consistent,
    check_tracking_path,
    init_state,
)
from repro.hierarchy import grid_hierarchy

from ._path_oracles import lateral_link_count, laterals_per_level_ok


@pytest.fixture(scope="module")
def h():
    return grid_hierarchy(3, 2)


def test_empty_state_has_no_pointers(h):
    state = SystemSnapshot()
    assert state.pointer_map() == {}
    assert state.pointers[h.root()].as_tuple() == (None, None, None, None)
    assert state.in_transit == []


def test_init_state_is_consistent(h):
    state = init_state(h, (4, 4))
    assert check_consistent(state, h, (4, 4)) == []


def test_init_path_is_vertical_growth(h):
    state = init_state(h, (4, 4))
    path, problems = check_tracking_path(state, h, (4, 4))
    assert problems == []
    assert [c.level for c in path] == [2, 1, 0]
    assert lateral_link_count(state, h, path) == 0


def test_init_secondary_pointers_cover_all_neighbors(h):
    state = init_state(h, (4, 4))
    for level in range(h.max_level):
        on_path = h.cluster((4, 4), level)
        for nbr in h.nbrs(on_path):
            assert state.pointers[nbr].nbrptup == on_path


def test_atomic_move_produces_consistent_state(h):
    state = init_state(h, (4, 4))
    state = atomic_move(h, state, (5, 4))
    assert check_consistent(state, h, (5, 4)) == []


def test_atomic_move_within_block_is_lateral(h):
    state = init_state(h, (4, 4))
    state = atomic_move(h, state, (4, 5))  # same level-1 block
    path, problems = check_tracking_path(state, h, (4, 5))
    assert problems == []
    assert lateral_link_count(state, h, path) == 1
    # Junction at the old terminus: the level-0 cluster of (4,4) stays on path.
    assert h.cluster((4, 4), 0) in path


def test_atomic_move_back_and_forth_is_stable(h):
    state = init_state(h, (4, 4))
    state = atomic_move(h, state, (4, 5))
    state = atomic_move(h, state, (4, 4))
    assert check_consistent(state, h, (4, 4)) == []
    state = atomic_move(h, state, (4, 5))
    state = atomic_move(h, state, (4, 4))
    assert check_consistent(state, h, (4, 4)) == []


def test_atomic_move_across_top_boundary(h):
    # (4,4) is in level-1 block (1,1); (2,4) is in block (0,1).
    state = init_state(h, (3, 4))
    state = atomic_move(h, state, (2, 4))
    assert check_consistent(state, h, (2, 4)) == []
    path, _ = check_tracking_path(state, h, (2, 4))
    assert laterals_per_level_ok(state, h, path)


def test_atomic_move_to_same_region_is_identity(h):
    state = init_state(h, (4, 4))
    moved = atomic_move(h, state, (4, 4))
    assert moved.pointer_map() == state.pointer_map()


def test_atomic_move_rejects_non_neighbor(h):
    state = init_state(h, (4, 4))
    with pytest.raises(AtomicModelError):
        atomic_move(h, state, (0, 0))


def test_atomic_move_requires_path(h):
    with pytest.raises(AtomicModelError):
        atomic_move(h, SystemSnapshot(), (4, 4))


def test_atomic_move_does_not_mutate_input(h):
    state = init_state(h, (4, 4))
    before = state.pointer_map()
    atomic_move(h, state, (4, 5))
    assert state.pointer_map() == before


def test_atomic_move_seq_long_walk_consistent(h):
    seq = [(4, 4), (4, 5), (3, 5), (2, 5), (2, 4), (3, 3), (4, 3), (5, 3), (5, 4)]
    state = atomic_move_seq(h, seq)
    assert check_consistent(state, h, (5, 4)) == []


def test_atomic_move_seq_single_region_is_init(h):
    assert atomic_move_seq(h, [(1, 1)]).pointer_map() == init_state(
        h, (1, 1)
    ).pointer_map()


def test_atomic_move_seq_empty_rejected(h):
    with pytest.raises(AtomicModelError):
        atomic_move_seq(h, [])


def test_every_intermediate_state_consistent(h):
    seq = [(0, 0), (1, 1), (2, 2), (3, 3), (4, 4), (3, 4), (2, 4), (1, 4), (0, 4)]
    state = init_state(h, seq[0])
    for region in seq[1:]:
        state = atomic_move(h, state, region)
        assert check_consistent(state, h, region) == []


def test_laterals_bounded_per_level(h):
    seq = [(0, 0), (1, 0), (2, 0), (3, 0), (4, 0), (5, 0), (6, 0), (7, 0), (8, 0)]
    state = init_state(h, seq[0])
    for region in seq[1:]:
        state = atomic_move(h, state, region)
        path, _ = check_tracking_path(state, h, region)
        assert laterals_per_level_ok(state, h, path)
