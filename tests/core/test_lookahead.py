"""Unit tests for the lookAhead function (Fig. 3)."""

import pytest

from repro.core import (
    Grow,
    GrowNbr,
    GrowPar,
    LookAheadError,
    Shrink,
    ShrinkUpd,
    SystemSnapshot,
    TransitMessage,
    atomic_move,
    init_state,
    look_ahead,
)
from repro.hierarchy import grid_hierarchy


@pytest.fixture(scope="module")
def h():
    return grid_hierarchy(3, 2)


def test_lookahead_fixpoint_on_consistent_state(h):
    """lookAhead(s) = s for consistent states (used in Lemma 4.7)."""
    state = init_state(h, (4, 4))
    assert look_ahead(state, h).pointer_map() == state.pointer_map()


def test_lookahead_on_empty_state_is_identity(h):
    state = SystemSnapshot()
    assert look_ahead(state, h).pointer_map() == state.pointer_map()


def test_lookahead_does_not_mutate_input(h):
    state = init_state(h, (4, 4))
    c0 = h.cluster((4, 5), 0)
    state.in_transit.append(TransitMessage(None, c0, Grow(cid=c0)))
    before = state.pointer_map()
    look_ahead(state, h)
    assert state.pointer_map() == before
    assert len(state.in_transit) == 1


def test_lookahead_after_first_move_equals_init(h):
    """Lemma 4.6: lookAhead(initial state + move(c0)) = init(c0)."""
    state = SystemSnapshot()
    c0 = h.cluster((4, 4), 0)
    state.in_transit.append(TransitMessage(None, c0, Grow(cid=c0)))
    future = look_ahead(state, h)
    assert future.pointer_map() == init_state(h, (4, 4)).pointer_map()
    assert future.in_transit == []


def test_lookahead_after_move_equals_atomic_move(h):
    """Lemma 4.7: lookAhead(consistent + move messages) = atomicMove."""
    state = init_state(h, (4, 4))
    old_c0 = h.cluster((4, 4), 0)
    new_c0 = h.cluster((5, 5), 0)
    state.in_transit.append(TransitMessage(None, new_c0, Grow(cid=new_c0)))
    state.in_transit.append(TransitMessage(None, old_c0, Shrink(cid=old_c0)))
    future = look_ahead(state, h)
    want = atomic_move(h, init_state(h, (4, 4)), (5, 5))
    assert future.pointer_map() == want.pointer_map()


def test_lookahead_applies_growpar_messages(h):
    state = SystemSnapshot()
    a = h.cluster((0, 0), 1)
    b = h.nbrs(a)[0]
    state.in_transit.append(TransitMessage(a, b, GrowPar(cid=a)))
    future = look_ahead(state, h)
    assert future.pointers[b].nbrptup == a


def test_lookahead_applies_grownbr_messages(h):
    state = SystemSnapshot()
    a = h.cluster((0, 0), 1)
    b = h.nbrs(a)[0]
    state.in_transit.append(TransitMessage(a, b, GrowNbr(cid=a)))
    assert look_ahead(state, h).pointers[b].nbrptdown == a


def test_lookahead_shrinkupd_clears_only_matching(h):
    state = SystemSnapshot()
    a = h.cluster((0, 0), 1)
    nbrs = h.nbrs(a)
    state.pointers[a].nbrptup = nbrs[0]
    state.pointers[a].nbrptdown = nbrs[1]
    state.in_transit.append(TransitMessage(nbrs[0], a, ShrinkUpd(cid=nbrs[0])))
    future = look_ahead(state, h)
    assert future.pointers[a].nbrptup is None
    assert future.pointers[a].nbrptdown == nbrs[1]


def test_lookahead_stale_shrink_is_ignored(h):
    """A shrink whose target's c was repointed must not clear it."""
    state = init_state(h, (4, 4))
    c1 = h.cluster((4, 4), 1)
    stale_child = h.cluster((5, 5), 0)  # not c1's current child
    state.in_transit.append(TransitMessage(stale_child, c1, Shrink(cid=stale_child)))
    future = look_ahead(state, h)
    assert future.pointers[c1].c == h.cluster((4, 4), 0)


def test_lookahead_strict_rejects_two_grows(h):
    state = SystemSnapshot()
    for region in [(0, 0), (8, 8)]:
        c0 = h.cluster(region, 0)
        state.pointers[c0].c = c0  # two pending grow processes
    with pytest.raises(LookAheadError):
        look_ahead(state, h, strict=True)
    # non-strict processes both
    future = look_ahead(state, h, strict=False)
    assert future.pointers[h.root()].c is not None


def test_lookahead_mid_grow_state(h):
    """A grow stopped mid-climb (armed timer) completes in lookAhead."""
    state = SystemSnapshot()
    c0 = h.cluster((4, 4), 0)
    state.pointers[c0].c = c0  # grow timer armed at level 0
    future = look_ahead(state, h)
    assert future.pointer_map() == init_state(h, (4, 4)).pointer_map()


def test_lookahead_mid_shrink_state(h):
    """A shrink stopped mid-climb completes in lookAhead."""
    state = init_state(h, (4, 4))
    # Manually begin a shrink at the terminus: c cleared, p still set.
    c0 = h.cluster((4, 4), 0)
    state.pointers[c0].c = None
    future = look_ahead(state, h)
    # The whole branch unwinds: only the root remains, childless.
    assert future.pointers[c0].p is None
    assert future.pointers[h.cluster((4, 4), 1)].p is None
    assert future.pointers[h.root()].c is None
