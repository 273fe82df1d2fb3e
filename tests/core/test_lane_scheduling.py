"""O(active) lane scheduling: dirty set, deadline heap, shared wheel.

Edge cases of the §9.5 scheduler (DESIGN.md) that the service-level
goldens exercise only incidentally:

* a lane that leaves the dirty set with an armed-but-unexpired deadline
  must be re-dirtied *exactly* at expiry (the deadline heap is the only
  wakeup channel for quiesced lanes);
* disarm-then-rearm at the same instant must not lose or double-fire
  the deadline (stale heap entries are dropped lazily);
* with every lane idle the wheel must be disarmed and the dirty set
  empty — no O(M) background churn;
* a quiesced lane with no ``c``, ``p``, find or future deadline is
  demoted to its secondary pair (deleted when that is ⊥ too), except
  while a future ``nbrtimeout`` still arms a wheel wakeup;
* a lane's deadlines exist from their first arm, which every lane and
  baseline tracker makes through ``Tracker._arm_deadline``;
* property: the dirty-set drain is observationally equivalent to the
  pre-§9.5 full scan (exact trace CRC, event count) on dense
  same-instant service scripts, which also pins the lanes'
  ``timeout_due`` arbitration outcomes, and ends with fewer
  ``ObjectLane`` records.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.no_lateral import NoLateralTracker
from repro.baselines.pack.predictive import PredictiveTracker
from repro.core import Find, FindQuery, Grow, GrowNbr, GrowPar, Shrink, ShrinkUpd
from repro.core.messages import Prewarm
from repro.core.tracker import NEVER_ARMED, ObjectLane, Tracker
from repro.scenario import ScenarioConfig
from repro.service import TrackingService
from repro.sim.sharded.context import ShardContext
from repro.sim.sharded.core import _tiling_for
from repro.tioa.timers import INFINITY
from repro.workload import EvaderEnter, EvaderStep, IssueFind, ScriptedWorkload


class TestDeadlineRedirty:
    def test_quiesced_lane_redirtied_exactly_at_expiry(self, rig):
        # Satellite-6 regression: the grow receipt dirties lane 3, the
        # drain finds nothing enabled (timer armed in the future) and
        # drops it from the dirty set — the armed deadline alone must
        # bring it back, exactly at expiry.
        t = rig.tracker((0, 0), 1)
        child = rig.hierarchy.cluster((0, 0), 0)
        rig.deliver(t, Grow(cid=child, object_id=3))
        lane = t.lane(3)
        assert lane.timer.armed
        deadline = lane.timer.deadline
        assert 3 not in t._dirty  # drained: no enabled action yet
        assert t._lane_wheel is not None
        assert t._lane_wheel.deadline == deadline
        # Nothing may fire before the deadline...
        rig.run(duration=(deadline - rig.sim.now) / 2)
        assert rig.gcast.of_kind("grow") == []
        # ...and the grow fires at it.
        rig.run()
        grows = rig.gcast.of_kind("grow")
        assert [p.object_id for _s, _d, p in grows] == [3]
        assert rig.sim.now == deadline
        assert lane.p is not None

    def test_find_timeout_redirties_via_wheel(self, rig):
        # The nbrtimeout leg: lane 5 issues its find query, quiesces
        # (roundtrip pending), and must escalate at the roundtrip
        # deadline through the heap -> _timeout_pending -> wheel path.
        t = rig.tracker((0, 0), 1)
        rig.deliver(t, Find(cid=t.clust, find_id=9, object_id=5))
        lane = t.lane(5)
        assert lane.finding
        assert lane.nbrtimeout.armed  # query issued by the drain
        deadline = lane.nbrtimeout.deadline
        assert 5 not in t._dirty
        assert not lane.timeout_due
        rig.gcast.clear()
        rig.run()
        assert rig.sim.now == deadline
        assert lane.timeout_due
        finds = rig.gcast.of_kind("find")
        assert [(d, p.object_id) for _s, d, p in finds] == [
            (t.parent_cluster, 5)
        ]

    def test_disarm_then_rearm_same_instant_fires_once(self, rig):
        t = rig.tracker((0, 0), 1)
        child = rig.hierarchy.cluster((0, 0), 0)
        rig.deliver(t, Grow(cid=child, object_id=4))
        lane = t.lane(4)
        deadline = lane.timer.deadline
        # Same-instant disarm + rearm at the same deadline strands one
        # heap entry; the lazy drop must neither lose the deadline nor
        # fire the grow twice.
        lane.timer.disarm()
        assert not lane.timer.armed
        t._arm_deadline(lane, "timer", deadline)
        rig.run()
        grows = rig.gcast.of_kind("grow")
        assert [p.object_id for _s, _d, p in grows] == [4]
        assert rig.sim.now == deadline

    def test_rearm_earlier_moves_the_wheel_up(self, rig):
        t = rig.tracker((0, 0), 1)
        child = rig.hierarchy.cluster((0, 0), 0)
        rig.deliver(t, Grow(cid=child, object_id=4))
        lane = t.lane(4)
        earlier = lane.timer.deadline / 2
        t._arm_deadline(lane, "timer", earlier)
        assert t._lane_wheel.deadline == earlier
        rig.run()
        assert rig.sim.now == earlier
        assert [p.object_id for _s, _d, p in rig.gcast.of_kind("grow")] == [4]

    def test_simultaneous_lanes_fire_in_object_id_order(self, rig):
        t = rig.tracker((0, 0), 1)
        child = rig.hierarchy.cluster((0, 0), 0)
        for oid in (5, 2, 9):
            rig.deliver(t, Grow(cid=child, object_id=oid))
        rig.run()
        grows = rig.gcast.of_kind("grow")
        assert [p.object_id for _s, _d, p in grows] == [2, 5, 9]

    def test_unchanged_rearm_moves_the_wheel_behind_same_instant_wheels(self, rig):
        # Two trackers' priority-1 wheels come due at one instant.  A
        # re-arm of a's wheel at its unchanged deadline in between gives
        # it a fresh queue entry, so b's wakeup fires first.  Keeping a's
        # entry instead would reorder the same-instant sends, which moves
        # the dispatch-order fingerprint of large service runs.
        a = rig.tracker((0, 0), 1)
        b = rig.tracker((3, 3), 1)
        rig.deliver(a, Grow(cid=rig.hierarchy.cluster((0, 0), 0), object_id=1))
        rig.deliver(b, Grow(cid=rig.hierarchy.cluster((3, 3), 0), object_id=1))
        deadline = a._lane_wheel.deadline
        assert b._lane_wheel.deadline == deadline
        rig.deliver(a, Grow(cid=rig.hierarchy.cluster((0, 0), 0), object_id=2))
        assert a._lane_wheel.deadline == deadline
        rig.run()
        grows = rig.gcast.of_kind("grow")
        assert [(s, p.object_id) for s, _d, p in grows] == [
            (b.clust, 1), (a.clust, 1), (a.clust, 2)
        ]
        assert rig.sim.now == deadline


class TestWheelQuiescence:
    def test_idle_lanes_leave_wheel_disarmed_and_dirty_empty(self, rig):
        t = rig.tracker((0, 0), 1)
        child = rig.hierarchy.cluster((0, 0), 0)
        for oid in (1, 2, 3):
            rig.deliver(t, Grow(cid=child, object_id=oid))
        rig.run()
        # All grows fired; every lane idle again.  No background churn:
        # the wheel is disarmed, the heap holds no live deadline and the
        # dirty set is empty.
        assert t._dirty == set()
        assert t._lane_wheel is not None and not t._lane_wheel.armed
        assert t._service_heap() == INFINITY
        assert t._timeout_pending == set()

    def test_untouched_tracker_never_creates_a_wheel(self, rig):
        t = rig.tracker((0, 0), 1)
        rig.deliver(t, Grow(cid=rig.hierarchy.cluster((0, 0), 0)))  # lane 0
        rig.run()
        assert t._lane_wheel is None
        assert t._dirty == set()
        assert t._deadline_heap == []


class TestLaneReclaim:
    """A lane costs what it holds (DESIGN.md §9.5)."""

    def test_find_query_to_an_absent_lane_builds_nothing(self, rig):
        t = rig.tracker((0, 0), 1)
        nbr = t.nbr_clusters[0]
        rig.deliver(t, FindQuery(cid=nbr, find_id=1, object_id=4))
        assert t._lanes == {}
        assert t._dirty == set()
        assert rig.gcast.vsa_sends == []  # ⊥ pointers: nothing to ack

    def test_grow_shrink_round_trip_leaves_no_lane(self, rig):
        t = rig.tracker((0, 0), 1)
        child = rig.hierarchy.cluster((0, 0), 0)
        rig.deliver(t, Grow(cid=child, object_id=3))
        rig.run()
        assert t.pointer_state(3)[1] == t.parent_cluster  # on the path
        rig.deliver(t, Shrink(cid=child, object_id=3))
        rig.run()
        assert [p.object_id for _s, _d, p in rig.gcast.of_kind("shrink")] == [3]
        assert t._lanes == {}
        assert t.pointer_state(3) == (None, None, None, None)

    def test_a_lane_holding_only_nbrptup_is_kept(self, rig):
        t = rig.tracker((0, 0), 1)
        nbr = t.nbr_clusters[0]
        rig.deliver(t, GrowPar(cid=nbr, object_id=6))
        assert 6 in t._lanes
        assert t.pointer_state(6) == (None, None, nbr, None)

    @pytest.mark.parametrize("cleared", [True, False])
    def test_a_future_nbrtimeout_keeps_the_lane_until_its_wakeup(self, rig, cleared):
        # Lane 5 queries, then a GrowNbr gives it a pointer to forward
        # the find along before the roundtrip ends.  Once ShrinkUpd
        # clears that pointer the lane holds no state, but its
        # nbrtimeout deadline still arms the wheel: the lane stays until
        # that wakeup, whose drain reclaims it.  The twin run keeps the
        # pointer, so its lane is never reclaimable; both fire the one
        # wakeup.
        t = rig.tracker((0, 0), 1)
        nbr = t.nbr_clusters[0]
        rig.deliver(t, Find(cid=t.clust, find_id=9, object_id=5))
        deadline = t.lane(5).nbrtimeout.deadline
        assert deadline > rig.sim.now
        rig.deliver(t, GrowNbr(cid=nbr, object_id=5))
        assert [(d, p.object_id) for _s, d, p in rig.gcast.of_kind("find")] == [
            (nbr, 5)
        ]
        if cleared:
            rig.deliver(t, ShrinkUpd(cid=nbr, object_id=5))
        assert 5 in t._lanes
        assert t._lane_wheel.deadline == deadline
        assert rig.sim.run() == 1  # the wheel wakeup
        assert rig.sim.now == deadline
        assert (5 in t._lanes) is not cleared


class TestDeadlinesOnFirstArm:
    """An extra lane's deadlines exist from their first arm (DESIGN.md §9)."""

    def test_a_lane_that_never_armed_holds_no_deadline(self, rig):
        t = rig.tracker((0, 0), 1)
        nbr, other = t.nbr_clusters[:2]
        rig.deliver(t, GrowPar(cid=nbr, object_id=6))
        rig.deliver(t, GrowNbr(cid=other, object_id=6))
        rig.deliver(t, FindQuery(cid=nbr, find_id=1, object_id=6))
        rig.deliver(t, ShrinkUpd(cid=other, object_id=6))
        assert t._lanes[6] is nbr  # nbrptup alone: no lane
        assert [p.object_id for _s, _d, p in rig.gcast.of_kind("findack")] == [6]
        assert t._lane_wheel is None and t._deadline_heap == []
        lane = t.lane(6)  # promoted: the pointers, and no deadline yet
        assert type(lane) is ObjectLane and t._lanes[6] is lane
        assert (lane.nbrptup, lane.nbrptdown) == (nbr, None)
        assert lane.timer is NEVER_ARMED and lane.nbrtimeout is NEVER_ARMED
        assert lane.timer.deadline == lane.nbrtimeout.deadline == INFINITY
        assert not lane.timer.armed and not lane.nbrtimeout.armed

    def test_first_arm_builds_the_deadline_and_rearms_reuse_it(self, rig):
        t = rig.tracker((0, 0), 1)
        nbr = t.nbr_clusters[0]
        rig.deliver(t, GrowPar(cid=nbr, object_id=2))
        lane = t.lane(2)
        lane.timer.disarm()  # a never-armed deadline disarms as a no-op
        assert lane.timer is NEVER_ARMED
        with pytest.raises(AttributeError):  # it has no tracker to arm on
            lane.timer.arm(4.0)
        assert NEVER_ARMED.deadline == INFINITY
        t._arm_deadline(lane, "timer", 4.0)
        timer = lane.timer
        assert timer is not NEVER_ARMED and timer._tracker is t
        assert lane.nbrtimeout is NEVER_ARMED  # the other one is untouched
        assert t._lane_wheel.deadline == 4.0
        t._arm_deadline(lane, "timer", 3.0)
        assert lane.timer is timer and t._lane_wheel.deadline == 3.0
        lane.timer.disarm()
        assert lane.timer is timer and not timer.armed
        assert not t._lane_wheel.armed
        t._arm_deadline(lane, "timer", 5.0)
        # One wheel wakeup, at the live deadline only: the stranded 3.0
        # and 4.0 heap entries fire nothing.
        assert rig.sim.run() == 1
        assert rig.sim.now == 5.0
        assert lane.timer is timer and not timer.armed  # lazily disarmed
        # ...after which the drain demoted the quiesced lane to its pair.
        assert t._lanes[2] is nbr
        assert t.pointer_state(2) == (None, None, nbr, None)

    def test_lane_zero_arms_its_executor_timer(self, rig):
        t = rig.tracker((0, 0), 1)
        timer = t.timer
        t._arm_deadline(t, "timer", 2.0)
        assert t.timer is timer and timer.deadline == 2.0
        assert t._lane_wheel is None

    def test_predictive_fresh_prewarm_arms_at_now(self, rig):
        t = rig.tracker((0, 0), 1, cls=PredictiveTracker)
        child = rig.hierarchy.cluster((0, 0), 0)
        rig.deliver(t, Prewarm(cid=child, expiry=60.0, object_id=3))
        rig.deliver(t, Grow(cid=child, object_id=3))
        # Armed at now: the grow fires in the receipt's own drain.
        assert t.preconfig_correct == 1
        grows = rig.gcast.of_kind("grow")
        assert [(d, p.object_id) for _s, d, p in grows] == [(t.parent_cluster, 3)]
        lane = t._lanes[3]
        assert lane.timer is not NEVER_ARMED and not lane.timer.armed
        assert rig.sim.now == 0.0

    def test_predictive_plain_grow_arms_after_g(self, rig):
        t = rig.tracker((0, 0), 1, cls=PredictiveTracker)
        child = rig.hierarchy.cluster((0, 0), 0)
        rig.deliver(t, Grow(cid=child, object_id=3))
        lane = t._lanes[3]
        assert lane.timer is not NEVER_ARMED
        deadline = rig.sim.now + rig.schedule.g(1)
        assert lane.timer.deadline == t._lane_wheel.deadline == deadline
        assert rig.gcast.of_kind("grow") == []
        rig.run()
        assert rig.sim.now == deadline
        assert [p.object_id for _s, _d, p in rig.gcast.of_kind("grow")] == [3]

    def test_no_lateral_grow_send_disarms(self, rig):
        t = rig.tracker((0, 0), 1, cls=NoLateralTracker)
        child = rig.hierarchy.cluster((0, 0), 0)
        rig.deliver(t, GrowPar(cid=t.nbr_clusters[0], object_id=4))
        rig.deliver(t, Grow(cid=child, object_id=4))
        lane = t._lanes[4]
        assert lane.timer.armed
        rig.run()
        # The grow goes to the parent despite nbrptup, and disarms.
        grows = rig.gcast.of_kind("grow")
        assert [(d, p.object_id) for _s, d, p in grows] == [(t.parent_cluster, 4)]
        assert not lane.timer.armed and not t._lane_wheel.armed
        assert lane.p == t.parent_cluster


def _service_config(seed):
    return ScenarioConfig(r=2, max_level=2, seed=seed, shards=2)


def _next_action_fullscan(tracker):
    """The pre-§9.5 precedence (``Tracker._next_action``): scans *every* lane.

    The oracle for the dirty-set equivalence property below: same
    precedence as the dirty-set drain, O(M) per call.  It never demotes
    a quiesced lane; one kept as its secondary pointers has no action.
    """
    if tracker.sendq:
        return tracker.output_sendq_head, ()
    if tracker.findAckq:
        return tracker.output_findAckq_head, ()
    now = tracker.now
    action = tracker._lane_enabled(tracker, now)
    if action is not None:
        return action
    heap = tracker._deadline_heap
    if heap and heap[0][0] <= now:
        tracker._service_heap()  # keep _timeout_pending fed for the wheel
    lanes = tracker._lanes
    for object_id in sorted(lanes):
        lane = lanes[object_id]
        if type(lane) is not ObjectLane:
            continue  # secondary pointers only: nothing to enable
        action = tracker._lane_enabled(lane, now)
        if action is not None:
            return action
    return None


def _dense_script(tiling, seed, n_objects):
    """A same-instant service load: every lane of a tracker comes due at once.

    All objects enter at t=0 from two start regions and step at shared
    instants, so the trackers above them hold every lane and their
    grow and shrink timers expire together; the finds land on shared
    instants too.  Co-enabled extra lanes are then the rule, and the
    order in which one drain serves them shows in the exact trace CRC.
    """
    rng = random.Random(seed)
    regions = tiling.regions()
    starts = rng.sample(regions, 2)
    current = [starts[k % 2] for k in range(n_objects)]
    actions = [EvaderEnter(0.0, current[k], k) for k in range(n_objects)]
    for step in (1, 2):
        for k in range(n_objects):
            current[k] = rng.choice(tiling.neighbors(current[k]))
            actions.append(EvaderStep(40.0 * step, current[k], k))
    for find_id in range(1, 9):
        at = float(rng.randrange(10, 100, 10))
        origin = rng.choice(regions)
        actions.append(IssueFind(at, origin, find_id, rng.randrange(n_objects)))
    return ScriptedWorkload.of(actions)


def _run_counting_lanes(cfg, script):
    """One plain run of ``script`` and the :class:`ObjectLane` records at its end."""
    built = []
    report = ShardContext.report

    def counting(context):
        trackers = context.system.trackers.built.values()
        built.append(sum(type(v) is ObjectLane for t in trackers for v in t._lanes.values()))
        return report(context)

    ShardContext.report = counting
    try:
        record = TrackingService(cfg, engine="plain").run(script)
    finally:
        ShardContext.report = report
    return record, built[0]


class TestDirtySetEquivalence:
    @settings(max_examples=6, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        n_objects=st.integers(min_value=16, max_value=20),
    )
    def test_dirty_drain_matches_full_scan_bit_for_bit(self, seed, n_objects):
        # The oracle: the pre-§9.5 O(M) scan over every lane.  The
        # dirty-set drain must produce the identical execution — exact
        # trace CRC, not just the canonical fingerprint — so the
        # timeout_due arbitration goldens are pinned transitively.  The
        # load is dense enough that a drain serving co-enabled lanes in
        # any order but ascending object id changes the trace.
        cfg = _service_config(seed)
        script = _dense_script(_tiling_for(cfg), seed, n_objects)
        fast, fast_lanes = _run_counting_lanes(cfg, script)
        calls = []

        def fullscan(tracker):
            calls.append(None)
            return _next_action_fullscan(tracker)

        # The precedence ``Tracker.step`` reads: swapping it is what makes
        # the slow run a full-scan run (asserted by the call count).
        original = Tracker._next_action
        Tracker._next_action = fullscan
        try:
            slow, slow_lanes = _run_counting_lanes(cfg, script)
        finally:
            Tracker._next_action = original
        assert len(calls) > 0
        assert fast.exact_fingerprint == slow.exact_fingerprint
        assert fast.canonical_fingerprint == slow.canonical_fingerprint
        # The fingerprints fold sends; wheel wakeups show only here.
        assert fast.events == slow.events
        assert fast.metrics == slow.metrics
        assert fast.finds == slow.finds
        # The oracle never demotes a quiesced lane, the drain does — and
        # the identical execution above says demoting is invisible.
        assert fast_lanes < slow_lanes
