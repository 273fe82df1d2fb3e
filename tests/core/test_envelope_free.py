"""The run path builds no :class:`~repro.tioa.actions.Action` envelope.

C-gcast delivers a message by calling ``input_cTOBrcv`` on its receiver
and the drain performs each enabled action in place
(``Tracker.step``); the augmented GPS hands ``move``/``left`` to the
client by ``input_move``/``input_left``.  The external ``find`` query
(``Executor.deliver``) is the one input that still travels as an
Action, once per find.  A guard, like CI's observer gate: an envelope
creeping back onto a per-message path shows up here as a count.

The second half is a differential test of the in-place drain: a tracker
drained by ``step()`` and a twin drained by the generic
``perform(enabled_outputs()[0])`` must send and hold the same.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    Find, FindAck, FindQuery, Found, Grow, GrowNbr, GrowPar, Shrink, ShrinkUpd,
)
from repro.core.tracker import Tracker
from repro.mobility import RandomNeighborWalk
from repro.scenario import ScenarioConfig, build
from repro.service import LoadGenerator, TrackingService
from repro.sim.sharded.core import _tiling_for
from repro.tioa import Action, TimedAutomaton

from tests.core.conftest import DELTA, E, TrackerRig


@pytest.fixture()
def built(monkeypatch):
    """The names of every Action constructed while the test runs."""
    names = []
    original = Action.__init__

    def init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        names.append(self.name)

    monkeypatch.setattr(Action, "__init__", init)
    return names


class TestNoEnvelopes:
    def test_service_run_builds_one_action_per_find(self, built):
        cfg = ScenarioConfig(r=2, max_level=2, seed=3)
        load = LoadGenerator(
            tiling=_tiling_for(cfg),
            n_objects=4,
            n_finds=8,
            find_clients=3,
            moves_per_object=2,
            deadline=60.0,
        )
        record = TrackingService(cfg, engine="plain").run(load, seed=3)
        assert record.messages_sent > 0 and record.moves_observed > 0
        assert len(record.finds) == 8
        assert built == ["find"] * 8

    def test_single_object_walk_builds_one_action_per_find(self, built):
        system, _ = build(ScenarioConfig(r=3, max_level=2, seed=7)).parts()
        evader = system.make_evader(
            RandomNeighborWalk(start=(4, 4)), dwell=1e9, start=(4, 4),
            rng=random.Random(7),
        )
        system.run_to_quiescence()
        for _ in range(6):
            evader.step()
            system.run_to_quiescence()
        assert built == []  # moves, lefts, deliveries and drains
        find_id = system.issue_find((0, 0))
        system.run_to_quiescence()
        assert system.finds.records[find_id].completed  # found reached a client
        assert built == ["find"]


class EnvelopeTracker(Tracker):
    """Drained the generic way: ``perform(enabled_outputs()[0])``."""

    __slots__ = ()
    step = TimedAutomaton.step


def _messages(rig, tracker, draw):
    """A random receipt for ``tracker``, from its real neighborhood."""
    h = rig.hierarchy
    nbrs = h.nbrs(tracker.clust)
    kids = [c for c in h.all_clusters() if h.parent(c) == tracker.clust]
    near = draw(st.sampled_from(nbrs + kids + [tracker.clust]))
    oid = draw(st.sampled_from([0, 0, 2, 5]))
    fid = draw(st.integers(1, 3))
    return draw(st.sampled_from([
        Grow(cid=draw(st.sampled_from(kids + [tracker.clust])), object_id=oid),
        Shrink(cid=draw(st.sampled_from(kids + [tracker.clust])), object_id=oid),
        GrowPar(cid=draw(st.sampled_from(nbrs)), object_id=oid),
        GrowNbr(cid=draw(st.sampled_from(nbrs)), object_id=oid),
        ShrinkUpd(cid=draw(st.sampled_from(nbrs)), object_id=oid),
        Find(cid=near, find_id=fid, object_id=oid),
        FindQuery(cid=draw(st.sampled_from(nbrs)), find_id=fid, object_id=oid),
        FindAck(pointer=near, find_id=fid, object_id=oid),
        Found(find_id=fid, object_id=oid),
    ]))


def _lane_state(tracker, object_id):
    lane = tracker.lane(object_id)
    return (
        tracker.pointer_state(object_id),
        lane.finding,
        lane.find_id,
        lane.timer.deadline,
        lane.nbrtimeout.deadline,
    )


class TestStepMatchesGenericDrain:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), level=st.sampled_from([0, 1]))
    def test_step_and_perform_enabled_outputs_agree(self, data, level):
        rigs = TrackerRig(), TrackerRig()
        twins = []
        for rig, cls in zip(rigs, (Tracker, EnvelopeTracker)):
            clust = rig.hierarchy.cluster((4, 4), level)
            tracker = cls(rig.hierarchy, clust, rig.gcast, rig.schedule, DELTA, E)
            rig.executor.register(tracker)
            twins.append(tracker)
        for _ in range(data.draw(st.integers(1, 25))):
            message = _messages(rigs[0], twins[0], data.draw)
            gap = data.draw(st.sampled_from([0.0, 0.0, 0.5, 2.0, 7.0]))
            for rig, tracker in zip(rigs, twins):
                rig.run(duration=gap)
                rig.deliver(tracker, message)
        for rig in rigs:
            rig.run()
        fast, slow = (rig.gcast for rig in rigs)
        assert fast.vsa_sends == slow.vsa_sends
        assert fast.client_sends == slow.client_sends
        for object_id in (0, 2, 5):
            assert _lane_state(twins[0], object_id) == _lane_state(twins[1], object_id)
        assert twins[0]._dirty == twins[1]._dirty
        assert rigs[0].sim.now == rigs[1].sim.now
