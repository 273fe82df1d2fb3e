"""Unit tests for the Tracker's shrink handling (Fig. 2, §IV-B.2)."""

import pytest

from repro.core import Grow, Shrink, ShrinkUpd


def put_on_path(rig, tracker):
    """Drive the tracker onto the path: child set, grow sent to parent."""
    child = (
        rig.hierarchy.children(tracker.clust)[0]
        if tracker.lvl > 0
        else tracker.clust
    )
    rig.deliver(tracker, Grow(cid=child))
    rig.run()
    assert tracker.c == child and tracker.p is not None
    rig.gcast.clear()
    return child


def test_shrink_with_matching_child_arms_timer(rig):
    t = rig.tracker((0, 0), 1)
    child = put_on_path(rig, t)
    rig.deliver(t, Shrink(cid=child))
    assert t.c is None
    assert t.timer.armed
    assert t.timer.deadline == rig.sim.now + rig.schedule.s(1)


def test_shrink_sends_to_parent_and_updates_neighbors(rig):
    t = rig.tracker((0, 0), 1)
    child = put_on_path(rig, t)
    parent = t.p
    rig.deliver(t, Shrink(cid=child))
    rig.run()
    assert t.p is None
    shrinks = rig.gcast.of_kind("shrink")
    assert shrinks == [(t.clust, parent, Shrink(cid=t.clust))]
    upds = rig.gcast.of_kind("shrinkupd")
    assert {d for _s, d, _p in upds} == set(rig.hierarchy.nbrs(t.clust))


def test_shrink_with_stale_child_is_ignored(rig):
    """Shrinks clean only deadwood, not the whole path."""
    t = rig.tracker((0, 0), 1)
    put_on_path(rig, t)
    other = rig.hierarchy.children(t.clust)[1]
    rig.deliver(t, Shrink(cid=other))
    assert t.c is not None
    assert not t.timer.armed
    rig.run()
    assert rig.gcast.of_kind("shrink") == []


def test_new_grow_during_shrink_countdown_cancels_shrink(rig):
    t = rig.tracker((0, 0), 1)
    child = put_on_path(rig, t)
    rig.deliver(t, Shrink(cid=child))
    # Before the s(1) timer fires, a fresh grow reconnects here.
    other = rig.hierarchy.children(t.clust)[1]
    rig.deliver(t, Grow(cid=other))
    rig.run()
    assert t.c == other
    assert t.p is not None  # still on the path
    assert rig.gcast.of_kind("shrink") == []


def test_shrink_at_max_level_only_clears_child(rig):
    root = rig.hierarchy.root()
    t = rig.tracker(rig.hierarchy.head(root), root.level)
    child = rig.hierarchy.children(root)[0]
    rig.deliver(t, Grow(cid=child))
    rig.deliver(t, Shrink(cid=child))
    assert t.c is None
    assert not t.timer.armed
    rig.run()
    assert rig.gcast.of_kind("shrink") == []


def test_shrinkupd_clears_matching_secondary_pointers(rig):
    t = rig.tracker((0, 0), 1)
    nbrs = rig.hierarchy.nbrs(t.clust)
    from repro.core import GrowNbr, GrowPar

    rig.deliver(t, GrowPar(cid=nbrs[0]))
    rig.deliver(t, GrowNbr(cid=nbrs[1]))
    rig.deliver(t, ShrinkUpd(cid=nbrs[0]))
    assert t.nbrptup is None
    assert t.nbrptdown == nbrs[1]
    rig.deliver(t, ShrinkUpd(cid=nbrs[1]))
    assert t.nbrptdown is None


def test_shrinkupd_with_other_cid_is_noop(rig):
    t = rig.tracker((0, 0), 1)
    nbrs = rig.hierarchy.nbrs(t.clust)
    from repro.core import GrowPar

    rig.deliver(t, GrowPar(cid=nbrs[0]))
    rig.deliver(t, ShrinkUpd(cid=nbrs[1]))
    assert t.nbrptup == nbrs[0]


def test_shrink_when_off_path_with_no_parent_is_silent(rig):
    t = rig.tracker((0, 0), 1)
    child = rig.hierarchy.children(t.clust)[0]
    # c set but grow not yet propagated (p = ⊥): shrink just clears c.
    rig.deliver(t, Grow(cid=child))
    rig.deliver(t, Shrink(cid=child))
    rig.run()
    assert (t.c, t.p) == (None, None)
    assert rig.gcast.of_kind("shrink") == []


def test_shrink_timer_uses_level_schedule(rig):
    t0 = rig.tracker((4, 4), 0)
    rig.deliver(t0, Grow(cid=t0.clust))
    rig.run()
    rig.deliver(t0, Shrink(cid=t0.clust))
    assert t0.timer.deadline == rig.sim.now + rig.schedule.s(0)


def test_shrink_off_path_keeps_the_pending_grow_deadline(rig):
    """DESIGN §3.2: with p = ⊥ a shrink leaves the grow timer as it was."""
    t = rig.tracker((0, 0), 1)
    child = rig.hierarchy.children(t.clust)[0]
    rig.deliver(t, Grow(cid=child))
    grow_deadline = rig.sim.now + rig.schedule.g(1)
    assert t.timer.deadline == grow_deadline
    rig.deliver(t, Shrink(cid=child))
    assert t.c is None
    assert t.timer.deadline == grow_deadline  # not re-armed at s(1)
