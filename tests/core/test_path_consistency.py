"""Unit tests for path predicates and the consistency checker (§IV-C)."""

import pytest

from repro.core import (
    SystemSnapshot,
    check_consistent,
    check_path_segment,
    check_tracking_path,
    extract_path,
    init_state,
)
from repro.hierarchy import grid_hierarchy


@pytest.fixture(scope="module")
def h():
    return grid_hierarchy(3, 2)


class TestExtractPath:
    def test_no_path_before_first_move(self, h):
        sequence, terminated = extract_path(SystemSnapshot(), h)
        assert sequence == [] and not terminated

    def test_vertical_path_extraction(self, h):
        state = init_state(h, (4, 4))
        sequence, terminated = extract_path(state, h)
        assert terminated
        assert sequence == [h.cluster((4, 4), 2), h.cluster((4, 4), 1), h.cluster((4, 4), 0)]

    def test_broken_path_not_terminated(self, h):
        state = init_state(h, (4, 4))
        state.pointers[h.cluster((4, 4), 1)].c = None
        sequence, terminated = extract_path(state, h)
        assert not terminated
        assert len(sequence) == 2

    def test_cycle_detected(self, h):
        state = init_state(h, (4, 4))
        c1 = h.cluster((4, 4), 1)
        state.pointers[c1].c = h.root()  # cycle back up
        sequence, terminated = extract_path(state, h)
        assert not terminated


class TestPathSegment:
    def test_valid_segment(self, h):
        state = init_state(h, (4, 4))
        sequence, _ = extract_path(state, h)
        assert check_path_segment(state, h, sequence) == []

    def test_empty_sequence_invalid(self, h):
        assert check_path_segment(init_state(h, (4, 4)), h, []) != []

    def test_broken_chain_reported(self, h):
        state = init_state(h, (4, 4))
        sequence, _ = extract_path(state, h)
        state.pointers[sequence[1]].p = None
        problems = check_path_segment(state, h, sequence)
        assert any(".p=" in p for p in problems)

    def test_root_with_parent_reported(self, h):
        state = init_state(h, (4, 4))
        sequence, _ = extract_path(state, h)
        state.pointers[h.root()].p = h.cluster((4, 4), 1)
        problems = check_path_segment(state, h, sequence)
        assert any("root" in p for p in problems)


class TestTrackingPath:
    def test_valid_tracking_path(self, h):
        state = init_state(h, (4, 4))
        path, problems = check_tracking_path(state, h, (4, 4))
        assert problems == []
        assert path is not None

    def test_wrong_terminus_reported(self, h):
        state = init_state(h, (4, 4))
        _path, problems = check_tracking_path(state, h, (0, 0))
        assert any("evader" in p for p in problems)

    def test_missing_path_reported(self, h):
        path, problems = check_tracking_path(SystemSnapshot(), h, (4, 4))
        assert path is None
        assert problems


class TestConsistency:
    def test_init_is_consistent(self, h):
        assert not check_consistent(init_state(h, (4, 4)), h, (4, 4))

    def test_off_path_pointer_reported(self, h):
        state = init_state(h, (4, 4))
        state.pointers[h.cluster((0, 0), 0)].p = h.cluster((0, 0), 1)
        problems = check_consistent(state, h, (4, 4))
        assert any("off-path" in p for p in problems)

    def test_missing_secondary_pointer_reported(self, h):
        state = init_state(h, (4, 4))
        nbr = h.nbrs(h.cluster((4, 4), 1))[0]
        state.pointers[nbr].nbrptup = None
        problems = check_consistent(state, h, (4, 4))
        assert any("nbrptup" in p for p in problems)

    def test_spurious_secondary_pointer_reported(self, h):
        state = init_state(h, (4, 4))
        far = h.cluster((0, 0), 0)
        state.pointers[far].nbrptdown = h.cluster((1, 1), 0)
        problems = check_consistent(state, h, (4, 4))
        assert any("nbrptdown" in p for p in problems)

    def test_in_transit_message_reported(self, h):
        from repro.core import Grow, TransitMessage

        state = init_state(h, (4, 4))
        c0 = h.cluster((4, 4), 0)
        state.in_transit.append(TransitMessage(None, c0, Grow(cid=c0)))
        problems = check_consistent(state, h, (4, 4))
        assert any("in transit" in p for p in problems)

    def test_snapshot_copy_is_independent(self, h):
        state = init_state(h, (4, 4))
        clone = state.copy()
        clone.pointers[h.root()].c = None
        assert state.pointers[h.root()].c is not None

    def test_nonbottom_pointers_only_path_and_secondaries(self, h):
        state = init_state(h, (4, 4))
        nonbottom = {
            cid for cid, ptrs in state.pointer_map().items() if ptrs != (None,) * 4
        }
        assert h.root() in nonbottom
        assert h.cluster((0, 0), 0) not in nonbottom
