"""Unit tests for find bookkeeping and state snapshots."""

import pytest

from repro.core import (
    Find,
    FindCoordinator,
    Found,
    Grow,
    GrowNbr,
    Shrink,
    TrackingClient,
    VineStalk,
    capture_snapshot,
)
from repro.core.state import PointerState, TransitMessage
from repro.geocast.cgcast import SendRecord
from repro.hierarchy import ClusterId, grid_hierarchy
from repro.mobility import FixedPath
from repro.sim import Simulator

CID = ClusterId(0, (0, 0))


class TestFindCoordinator:
    @pytest.fixture()
    def coordinator(self):
        return FindCoordinator(Simulator())

    def test_ids_are_unique_and_sequential(self, coordinator):
        a = coordinator.new_find((0, 0))
        b = coordinator.new_find((1, 1))
        assert (a, b) == (1, 2)

    def test_first_found_wins(self, coordinator):
        fid = coordinator.new_find((0, 0))
        coordinator.sim.call_at(5.0, lambda: None)
        coordinator.sim.run()
        coordinator.client_found(fid, (3, 3), client_id=1)
        coordinator.client_found(fid, (9, 9), client_id=2)
        record = coordinator.records[fid]
        assert record.found_region == (3, 3)
        assert record.latency == 5.0

    def test_unknown_find_id_ignored(self, coordinator):
        coordinator.client_found(99, (0, 0), client_id=1)  # no crash

    def test_work_attribution_by_find_id(self, coordinator):
        fid = coordinator.new_find((0, 0))
        coordinator.observe_send(
            [SendRecord(0.0, CID, CID, Find(cid=CID, find_id=fid), 3.0, 3.0)]
        )
        coordinator.observe_send(
            [SendRecord(0.0, CID, CID, Find(cid=CID, find_id=999), 5.0, 5.0)]
        )
        coordinator.observe_send(
            [SendRecord(0.0, CID, CID, Grow(cid=CID), 7.0, 7.0)]  # move message
        )
        assert coordinator.records[fid].work == 3.0

    def test_work_accrues_after_completion(self, coordinator):
        # The found relays after the first client response still count:
        # completion is only known to the shard that saw the responding
        # client, so gating on it would make per-find work depend on the
        # shard layout instead of the K-invariant send set.
        fid = coordinator.new_find((0, 0))
        coordinator.client_found(fid, (1, 1), client_id=0)
        coordinator.observe_send(
            [SendRecord(0.0, CID, CID, Found(find_id=fid), 2.0, 2.0)]
        )
        assert coordinator.records[fid].work == 2.0

    def test_completion_rate(self, coordinator):
        a = coordinator.new_find((0, 0))
        coordinator.new_find((1, 1))
        coordinator.client_found(a, (0, 0), client_id=0)
        assert coordinator.completion_rate() == 0.5
        assert len(coordinator.outstanding()) == 1
        assert len(coordinator.completed_records()) == 1

    def test_empty_coordinator_rate_is_one(self, coordinator):
        assert coordinator.completion_rate() == 1.0


class TestFindIdPreassignment:
    """Pre-assigned (scripted) ids interleaving with local allocation."""

    @pytest.fixture()
    def coordinator(self):
        return FindCoordinator(Simulator())

    def test_preassigned_id_advances_the_counter(self, coordinator):
        assert coordinator.new_find((0, 0), find_id=5) == 5
        assert coordinator.new_find((1, 1)) == 6

    def test_local_allocation_skips_taken_ids(self, coordinator):
        # A pre-assigned id *below* the counter must not be handed out
        # a second time by the sequential allocator.
        a = coordinator.new_find((0, 0))  # 1
        coordinator.new_find((1, 1), find_id=2)
        b = coordinator.new_find((2, 2))  # must skip 2
        assert (a, b) == (1, 3)
        assert len(coordinator.records) == 3

    def test_preassigned_collision_raises(self, coordinator):
        from repro.core.finds import FindIdCollisionError

        coordinator.new_find((0, 0), find_id=7)
        with pytest.raises(FindIdCollisionError):
            coordinator.new_find((1, 1), find_id=7)
        # The original record survived untouched.
        assert coordinator.records[7].origin == (0, 0)

    def test_collision_with_locally_allocated_id_raises(self, coordinator):
        from repro.core.finds import FindIdCollisionError

        fid = coordinator.new_find((0, 0))
        with pytest.raises(FindIdCollisionError):
            coordinator.new_find((1, 1), find_id=fid)


class TestSnapshotCapture:
    @pytest.fixture()
    def system(self):
        h = grid_hierarchy(2, 2)
        system = VineStalk(h)
        system.make_evader(FixedPath([(0, 0), (1, 1)]), dwell=1e12, start=(0, 0))
        return h, system

    def test_snapshot_includes_client_grow_in_transit(self, system):
        h, vs = system
        snap = capture_snapshot(vs)  # the initial grow is still in flight
        grows = snap.messages_of_kind(Grow)
        assert len(grows) == 1
        assert grows[0].src is None  # client-originated
        assert grows[0].dest == h.cluster((0, 0), 0)

    def test_snapshot_includes_queued_sendq_entries(self, system):
        h, vs = system
        # Run until just after the level-0 grow fires (growPar queued).
        vs.sim.run(max_events=3)
        tracker = vs.tracker_at((0, 0), 0)
        if tracker.sendq:
            snap = capture_snapshot(vs)
            assert snap.messages_of_kind(GrowNbr, Grow) is not None

    def test_snapshot_excludes_find_messages(self, system):
        h, vs = system
        vs.run_to_quiescence()
        vs.issue_find((1, 0))
        snap = capture_snapshot(vs)
        assert snap.in_transit == []  # find traffic is not tracking state

    def test_pointer_state_roundtrip(self):
        ps = PointerState(c=CID)
        clone = ps.copy()
        clone.p = CID
        assert ps.p is None
        assert ps.as_tuple() == (CID, None, None, None)

    def test_transit_message_equality(self):
        a = TransitMessage(None, CID, Grow(cid=CID))
        b = TransitMessage(None, CID, Grow(cid=CID))
        assert a == b


class TestClientEdgeCases:
    def test_client_find_before_gps_fix_raises(self):
        h = grid_hierarchy(2, 2)
        system = VineStalk(h)
        client = TrackingClient(999, h, system.cgcast)
        with pytest.raises(RuntimeError):
            client.ctob_send(Grow(cid=h.cluster((0, 0), 0)))

    def test_client_reset_clears_evader_flag(self):
        h = grid_hierarchy(2, 2)
        system = VineStalk(h)
        client = system.clients[(0, 0)]
        client.evader_here = True
        client.reset_state()
        assert not client.evader_here
        assert client.region is None

    def test_shrink_sent_even_after_restart_loses_flag(self):
        """A restarted client that missed the move does not send shrink."""
        h = grid_hierarchy(2, 2)
        system = VineStalk(h)
        evader = system.make_evader(
            FixedPath([(0, 0), (1, 1)]), dwell=1e12, start=(0, 0)
        )
        system.run_to_quiescence()
        records = []
        system.cgcast.observe(records.extend)
        client = system.clients[(0, 0)]
        client.fail()
        client.restart()
        evader.step()  # left (0,0): the amnesiac client still gets the input
        shrinks = [r for r in records if isinstance(r.payload, Shrink)]
        # input_left fires regardless of evader_here: the shrink is sent
        # (the level-0 process ignores it if its c does not match).
        assert len(shrinks) == 1
