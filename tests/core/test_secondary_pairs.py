"""A lane holding only secondary pointers is no ObjectLane: its bare
``nbrptup``, or the ``(nbrptup, nbrptdown)`` tuple.

Fig. 2's grow and shrink send ``GrowPar``/``GrowNbr``/``ShrinkUpd`` to
every neighbour, and a find queries them with ``FindQuery``.  For an
object whose lane holds no ``c``, ``p``, find or deadline these
receipts run their one ``_recv_*`` rule on the ``(nbrptup, nbrptdown)``
pair and build nothing; the first receipt or arm that needs more
promotes the pair into an :class:`ObjectLane`, and the drain demotes a
quiesced lane back to its pair.  These tests pin that layout:

* each of the four receipts to an absent or paired lane builds no
  ``ObjectLane`` and ``pointer_state`` reads the pair;
* the pair feeds the Fig. 2 rules once promoted (a lateral grow) and
  survives demotion (a later ``FindQuery`` is answered from it, in the
  rule's ``c``, ``nbrptdown``, ``nbrptup`` order);
* a secondary-only lane costs at most one 64-byte block (none for a bare
  ``nbrptup``), where an ``ObjectLane`` is one of 128 bytes or more.
"""

import sys
import tracemalloc

import pytest

from repro.core import Find, FindQuery, Grow, GrowNbr, GrowPar, ShrinkUpd
from repro.core.tracker import ObjectLane
from repro.stabilization.stabilizing_tracker import StabilizingTracker


@pytest.fixture()
def built(monkeypatch):
    """Counts :class:`ObjectLane` constructions."""
    count = []
    init = ObjectLane.__init__

    def counting(self, object_id):
        count.append(object_id)
        init(self, object_id)

    monkeypatch.setattr(ObjectLane, "__init__", counting)
    return count


def _findacks(rig):
    return [(d, p.pointer, p.object_id) for _s, d, p in rig.gcast.of_kind("findack")]


class TestSecondaryReceipts:
    def test_growpar_and_grownbr_write_the_pair(self, rig, built):
        t = rig.tracker((0, 0), 1)
        up, down = t.nbr_clusters[:2]
        rig.deliver(t, GrowPar(cid=up, object_id=6))
        assert t.pointer_state(6) == (None, None, up, None) and t._lanes[6] is up
        rig.deliver(t, GrowNbr(cid=down, object_id=6))
        assert t.pointer_state(6) == (None, None, up, down) and t._lanes[6] == (up, down)
        rig.deliver(t, GrowNbr(cid=down, object_id=7))
        assert t.pointer_state(7) == (None, None, None, down) and t._lanes[7] == (None, down)
        assert built == [] and t._dirty == set()

    @pytest.mark.parametrize("cleared", ["up", "down"])
    def test_shrinkupd_clears_the_matching_pointer(self, rig, built, cleared):
        t = rig.tracker((0, 0), 1)
        up, down = t.nbr_clusters[:2]
        rig.deliver(t, GrowPar(cid=up, object_id=6))
        rig.deliver(t, GrowNbr(cid=down, object_id=6))
        rig.deliver(t, ShrinkUpd(cid=up if cleared == "up" else down, object_id=6))
        kept = (None, down) if cleared == "up" else (up, None)
        assert t.pointer_state(6) == (None, None, *kept)
        rig.deliver(t, ShrinkUpd(cid=kept[0] or kept[1], object_id=6))
        assert t.pointer_state(6) == (None,) * 4 and 6 not in t._lanes
        assert built == []

    def test_shrinkupd_to_an_absent_lane_leaves_it_absent(self, rig, built):
        t = rig.tracker((0, 0), 1)
        rig.deliver(t, ShrinkUpd(cid=t.nbr_clusters[0], object_id=4))
        assert t._lanes == {} and t._dirty == set() and built == []

    def test_findquery_answers_from_the_pair_in_the_rule_order(self, rig, built):
        t = rig.tracker((0, 0), 1)
        asker, up, down = t.nbr_clusters[:3]
        rig.deliver(t, GrowPar(cid=up, object_id=7))
        rig.deliver(t, FindQuery(cid=asker, find_id=1, object_id=7))
        rig.deliver(t, GrowNbr(cid=down, object_id=7))
        rig.deliver(t, FindQuery(cid=asker, find_id=2, object_id=7))
        # nbrptup alone, then nbrptdown ahead of nbrptup.
        assert _findacks(rig) == [(asker, up, 7), (asker, down, 7)]
        assert built == []

    def test_stabilizing_overrides_see_the_pair_as_an_extra_lane(self, rig, built):
        t = rig.tracker((0, 0), 1, cls=StabilizingTracker)
        nbr = t.nbr_clusters[0]
        rig.deliver(t, GrowPar(cid=nbr, object_id=2))
        rig.deliver(t, GrowNbr(cid=nbr, object_id=2))
        # Lane 0's leases are untouched; lane 2 holds the pair.
        assert t.nbrptup_heard is None and t.nbrptdown_heard is None
        assert t.pointer_state(2) == (None, None, nbr, nbr) and built == []


class TestPromotionAndDemotion:
    def test_a_grow_after_growpar_joins_laterally(self, rig, built):
        t = rig.tracker((0, 0), 1)
        nbr = t.nbr_clusters[0]
        rig.deliver(t, GrowPar(cid=nbr, object_id=5))
        rig.deliver(t, Grow(cid=rig.hierarchy.cluster((0, 0), 0), object_id=5))
        assert built == [5]  # the grow needs c and a deadline: promoted
        rig.run()
        assert [(d, p.object_id) for _s, d, p in rig.gcast.of_kind("grow")] == [(nbr, 5)]
        assert t.pointer_state(5)[1:3] == (nbr, nbr)
        growupdates = {type(p).__name__ for _s, _d, p in rig.gcast.vsa_sends}
        assert "GrowNbr" in growupdates and "GrowPar" not in growupdates

    def test_a_demoted_lanes_pointers_answer_a_later_findquery(self, rig, built):
        # Lane 5 queries; a GrowNbr gives its find a pointer to follow.
        # Once the roundtrip's wheel wakeup has passed the lane holds only
        # nbrptdown: the drain demotes it to the pair, which answers.
        t = rig.tracker((0, 0), 1)
        nbr, asker = t.nbr_clusters[:2]
        rig.deliver(t, Find(cid=t.clust, find_id=9, object_id=5))
        rig.deliver(t, GrowNbr(cid=nbr, object_id=5))
        assert [(d, p.object_id) for _s, d, p in rig.gcast.of_kind("find")] == [(nbr, 5)]
        assert type(t._lanes[5]) is ObjectLane  # a future nbrtimeout keeps it
        assert rig.sim.run() == 1
        assert t._lanes[5] == (None, nbr)
        assert t.pointer_state(5) == (None, None, None, nbr)
        rig.gcast.clear()
        rig.deliver(t, FindQuery(cid=asker, find_id=10, object_id=5))
        assert _findacks(rig) == [(asker, nbr, 5)]
        assert built == [5]

    def test_a_promoted_pair_keeps_its_pointers_for_the_find(self, rig):
        # A find at a paired lane forwards along nbrptdown at once.
        t = rig.tracker((0, 0), 1)
        nbr = t.nbr_clusters[0]
        rig.deliver(t, GrowNbr(cid=nbr, object_id=8))
        rig.deliver(t, Find(cid=t.clust, find_id=3, object_id=8))
        assert [(d, p.object_id) for _s, d, p in rig.gcast.of_kind("find")] == [(nbr, 8)]
        assert t._lanes[8] == (None, nbr)  # demoted in the same drain


@pytest.mark.parametrize("kind", [GrowPar, GrowNbr])
def test_what_a_secondary_only_lane_costs(rig, kind):
    t = rig.tracker((4, 4), 1)
    nbrs = t.nbr_clusters
    n = 2000
    # Object ids past the small-int cache; the messages (and with them
    # the id objects) are made before tracing starts.
    messages = [kind(cid=nbrs[k % len(nbrs)], object_id=1000 + k) for k in range(n)]
    tracemalloc.start()
    try:
        for message in messages:
            t.input_cTOBrcv(message)
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    snapshot = snapshot.filter_traces([tracemalloc.Filter(False, tracemalloc.__file__)])
    stats = snapshot.statistics("filename")
    blocks = sum(stat.count for stat in stats)
    size = sum(stat.size for stat in stats) - sys.getsizeof(t._lanes)
    assert len(t._lanes) == n
    if kind is GrowPar:  # the bare nbrptup: nothing but the dict entry
        assert blocks <= n // 10, blocks
    else:  # one (None, nbrptdown) tuple each
        assert blocks <= n + n // 10, blocks
        assert size <= 64 * n, size
