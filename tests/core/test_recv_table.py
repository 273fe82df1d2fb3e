"""A Tracker class receives through one table, message class → function.

``Tracker.input_cTOBrcv`` looks the ``_recv_<kind>`` handler up in its
class's ``_recv_table``, filled on first receipt.  Each subclass gets a
table of its own, so trackers of several classes in one process — one
world holding both kinds — each receive through their own overrides,
whichever class received first.
"""

from types import FunctionType

import pytest

from repro.baselines.pack.predictive import PredictiveTracker
from repro.core import Grow
from repro.core.messages import Prewarm
from repro.core.tracker import Tracker
from repro.stabilization.stabilizing_tracker import Heartbeat, StabilizingTracker


@pytest.mark.parametrize("first", [Tracker, PredictiveTracker, StabilizingTracker])
def test_a_world_of_both_kinds_dispatches_each_to_its_own_handler(rig, first):
    h = rig.hierarchy
    trackers = {
        Tracker: rig.tracker((0, 0), 1),
        PredictiveTracker: rig.tracker((3, 3), 1, cls=PredictiveTracker),
        StabilizingTracker: rig.tracker((6, 6), 1, cls=StabilizingTracker),
    }
    order = [first] + [cls for cls in trackers if cls is not first]
    predictive = trackers[PredictiveTracker]
    child = h.cluster((3, 3), 0)
    predictive.input_cTOBrcv(Prewarm(cid=child, expiry=100.0))
    for cls in order:
        tracker = trackers[cls]
        tracker.input_cTOBrcv(Grow(cid=h.cluster(h.head(tracker.clust), 0)))
    now, g = rig.sim.now, rig.schedule.g(1)
    # The fresh prewarm zeroes the predictive tracker's grow delay only.
    assert predictive.preconfig_correct == 1
    assert predictive.timer.deadline == now
    assert trackers[Tracker].timer.deadline == now + g
    assert trackers[StabilizingTracker].timer.deadline == now + g
    assert trackers[StabilizingTracker].child_heard == now
    # A kind only a subclass handles stays unhandled by its base.
    with pytest.raises(TypeError, match="unhandled message"):
        trackers[Tracker].input_cTOBrcv(Prewarm(cid=child))
    with pytest.raises(TypeError, match="unhandled message"):
        predictive.input_cTOBrcv(Heartbeat(cid=child))
    trackers[StabilizingTracker].input_cTOBrcv(Heartbeat(cid=child))

    for cls in trackers:
        table = cls._recv_table
        assert table[Grow] is cls._recv_grow
        assert all(type(handler) is FunctionType for handler in table.values())
    assert len({id(cls._recv_table) for cls in trackers}) == 3
