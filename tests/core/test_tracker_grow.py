"""Unit tests for the Tracker's grow handling (Fig. 2, §IV-B.1)."""

import pytest

from repro.core import Grow, GrowNbr, GrowPar, Shrink
from tests.core.conftest import DELTA, E


def test_grow_sets_child_and_arms_timer(rig):
    t = rig.tracker((0, 0), 1)
    child = rig.hierarchy.cluster((0, 0), 0)
    rig.deliver(t, Grow(cid=child))
    assert t.c == child
    assert t.timer.armed
    assert t.timer.deadline == rig.sim.now + rig.schedule.g(1)


def test_grow_propagates_to_parent_after_g(rig):
    t = rig.tracker((0, 0), 1)
    child = rig.hierarchy.cluster((0, 0), 0)
    rig.deliver(t, Grow(cid=child))
    rig.run()
    parent = rig.hierarchy.parent(t.clust)
    grows = rig.gcast.of_kind("grow")
    assert grows == [(t.clust, parent, Grow(cid=t.clust))]
    assert t.p == parent


def test_vertical_grow_announces_growpar_to_all_neighbors(rig):
    t = rig.tracker((0, 0), 1)
    rig.deliver(t, Grow(cid=rig.hierarchy.cluster((0, 0), 0)))
    rig.run()
    growpars = rig.gcast.of_kind("growpar")
    assert {dest for _s, dest, _p in growpars} == set(rig.hierarchy.nbrs(t.clust))
    assert rig.gcast.of_kind("grownbr") == []


def test_lateral_grow_via_nbrptup(rig):
    t = rig.tracker((0, 0), 1)
    nbr = rig.hierarchy.nbrs(t.clust)[0]
    rig.deliver(t, GrowPar(cid=nbr))  # neighbor joined via its parent
    assert t.nbrptup == nbr
    rig.deliver(t, Grow(cid=rig.hierarchy.cluster((0, 0), 0)))
    rig.run()
    assert t.p == nbr  # lateral link, not hierarchy parent
    grows = rig.gcast.of_kind("grow")
    assert grows[0][1] == nbr
    # lateral joins announce grownbr, not growpar
    assert rig.gcast.of_kind("growpar") == []
    assert {d for _s, d, _p in rig.gcast.of_kind("grownbr")} == set(
        rig.hierarchy.nbrs(t.clust)
    )


def test_grow_done_when_already_on_path(rig):
    t = rig.tracker((0, 0), 1)
    t.p = rig.hierarchy.parent(t.clust)  # already on the path
    child = rig.hierarchy.cluster((0, 0), 0)
    rig.deliver(t, Grow(cid=child))
    assert t.c == child  # prose semantics: c always updates (DESIGN.md §3.1)
    assert not t.timer.armed
    rig.run()
    assert rig.gcast.of_kind("grow") == []


def test_grow_at_max_level_terminates(rig):
    root = rig.hierarchy.root()
    t = rig.tracker(rig.hierarchy.head(root), root.level)
    child = rig.hierarchy.children(root)[0]
    rig.deliver(t, Grow(cid=child))
    assert t.c == child
    assert not t.timer.armed
    rig.run()
    assert rig.gcast.of_kind("grow") == []


def test_second_grow_does_not_rearm_timer(rig):
    t = rig.tracker((0, 0), 1)
    kids = rig.hierarchy.children(t.clust)
    rig.deliver(t, Grow(cid=kids[0]))
    deadline = t.timer.deadline
    rig.sim.run(max_events=0)
    rig.deliver(t, Grow(cid=kids[1]))
    assert t.c == kids[1]  # child updated
    assert t.timer.deadline == deadline  # original deadline kept


def test_growpar_and_grownbr_set_secondary_pointers(rig):
    t = rig.tracker((0, 0), 1)
    nbrs = rig.hierarchy.nbrs(t.clust)
    rig.deliver(t, GrowPar(cid=nbrs[0]))
    rig.deliver(t, GrowNbr(cid=nbrs[1]))
    assert t.nbrptup == nbrs[0]
    assert t.nbrptdown == nbrs[1]


def test_shrink_cancels_pending_grow(rig):
    t = rig.tracker((0, 0), 1)
    child = rig.hierarchy.cluster((0, 0), 0)
    rig.deliver(t, Grow(cid=child))
    rig.deliver(t, Shrink(cid=child))  # removes c before the timer fires
    rig.run()
    assert t.c is None
    assert t.p is None
    assert rig.gcast.of_kind("grow") == []
    assert rig.gcast.of_kind("shrink") == []  # p was ⊥: nothing to clean
    assert not t.timer.armed  # lazily disarmed at expiry


def test_grow_after_cancelled_grow_rearms_fresh_timer(rig):
    t = rig.tracker((0, 0), 1)
    kids = rig.hierarchy.children(t.clust)
    rig.deliver(t, Grow(cid=kids[0]))
    rig.deliver(t, Shrink(cid=kids[0]))
    rig.run()  # stale timer expires with nothing enabled
    rig.deliver(t, Grow(cid=kids[1]))
    assert t.timer.armed
    assert t.timer.deadline == rig.sim.now + rig.schedule.g(1)
    rig.run()
    assert t.p == rig.hierarchy.parent(t.clust)


def test_level0_self_grow_from_client(rig):
    t = rig.tracker((4, 4), 0)
    rig.deliver(t, Grow(cid=t.clust))  # client grow carries the cluster itself
    assert t.c == t.clust
    rig.run()
    assert t.p == rig.hierarchy.parent(t.clust)
    sent = rig.gcast.of_kind("grow")
    assert sent[0][1] == rig.hierarchy.parent(t.clust)


def test_failed_tracker_ignores_grow(rig):
    t = rig.tracker((0, 0), 1)
    t.fail()
    from repro.tioa import Action

    t.handle_input(Action.input("cTOBrcv", message=Grow(cid=t.clust)))
    assert t.c is None
