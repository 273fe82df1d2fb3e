"""Tests for multi-head cluster replication (§VII)."""

import random

import pytest

from repro.core import capture_snapshot, check_consistent
from repro.hierarchy import grid_hierarchy
from repro.mobility import FixedPath, RandomNeighborWalk
from repro.replication import ReplicatedVineStalk, choose_slots


@pytest.fixture()
def h():
    return grid_hierarchy(3, 2)


class TestSlotSelection:
    def test_slots_are_distinct_members(self, h):
        clust = h.cluster((4, 4), 1)
        slots = choose_slots(h, clust, 3)
        assert len(slots) == 3
        assert len(set(slots)) == 3
        assert all(region in h.members(clust) for region in slots)

    def test_level0_cluster_has_single_possible_slot(self, h):
        clust = h.cluster((4, 4), 0)
        assert choose_slots(h, clust, 3) == [(4, 4)]

    def test_m_capped_by_cluster_size(self, h):
        clust = h.cluster((4, 4), 1)  # 9 members
        assert len(choose_slots(h, clust, 99)) == 9

    def test_first_slot_is_default_head(self, h):
        clust = h.cluster((4, 4), 1)
        assert choose_slots(h, clust, 2)[0] == h.head(clust)


class TestFailover:
    def make(self, h, m=2):
        system = ReplicatedVineStalk(h, replication_factor=m)
        evader = system.make_evader(FixedPath([(4, 4)]), dwell=1e12, start=(4, 4))
        system.run_to_quiescence()
        return system, evader

    def test_primary_failure_keeps_cluster_alive(self, h):
        system, evader = self.make(h)
        clust = h.cluster((4, 4), 1)
        primary = system.slots[clust].primary()
        lost = system.fail_region(primary)
        assert clust not in lost
        assert system.cluster_alive(clust)
        assert system.total_promotions() >= 1

    def test_tracking_survives_primary_failures_along_path(self, h):
        # Evader at (3,3): its level-1 cluster's primary slot sits at the
        # block center (4,4), a *different* region, so killing it exercises
        # pure failover (level-0 clusters are single regions and cannot be
        # replicated — killing the evader's own region is always fatal).
        system = ReplicatedVineStalk(h, replication_factor=2)
        system.make_evader(FixedPath([(3, 3)]), dwell=1e12, start=(3, 3))
        system.run_to_quiescence()
        clust = h.cluster((3, 3), 1)
        primary = system.slots[clust].primary()
        assert primary != (3, 3)
        lost = system.fail_region(primary)
        assert clust not in lost
        find_id = system.issue_find((0, 0))
        system.run_to_quiescence()
        record = system.finds.records[find_id]
        assert record.completed
        assert record.found_region == (3, 3)

    def test_all_slots_down_fails_cluster(self, h):
        system, evader = self.make(h, m=2)
        clust = h.cluster((4, 4), 1)
        slots = system.slots[clust]
        lost = []
        for region in list(slots.regions):
            lost.extend(system.fail_region(region))
        assert clust in lost
        assert not system.cluster_alive(clust)

    def test_restart_from_total_loss_resets_state(self, h):
        system, evader = self.make(h, m=2)
        clust = h.cluster((4, 4), 1)
        slots = system.slots[clust]
        for region in list(slots.regions):
            system.fail_region(region)
        tracker = system.trackers[clust]
        first = slots.regions[0]
        system.restart_region(first)
        assert system.cluster_alive(clust)
        assert tracker.pointer_state() == (None, None, None, None)

    def test_restart_with_survivor_resyncs(self, h):
        system, evader = self.make(h, m=2)
        clust = h.cluster((4, 4), 1)
        slots = system.slots[clust]
        before_sync = system.sync_messages
        system.fail_region(slots.regions[1])  # backup down
        system.restart_region(slots.regions[1])  # resync from primary
        # At least this cluster resynced (the region may host other
        # clusters' slots, each charging its own state transfer).
        assert system.sync_messages > before_sync
        assert system.cluster_alive(clust)
        assert system.trackers[clust].pointer_state() != (None, None, None, None)

    def test_m1_behaves_like_base(self, h):
        system, evader = self.make(h, m=1)
        clust = h.cluster((4, 4), 1)
        lost = system.fail_region(system.slots[clust].primary())
        assert clust in lost
        assert not system.cluster_alive(clust)


class TestOverhead:
    def run_walk(self, h, m, n_moves=10):
        system = ReplicatedVineStalk(h, replication_factor=m)
        evader = system.make_evader(
            RandomNeighborWalk(start=(4, 4)), dwell=1e12, start=(4, 4),
            rng=random.Random(3),
        )
        system.run_to_quiescence()
        for _ in range(n_moves):
            evader.step()
            system.run_to_quiescence()
        snapshot = capture_snapshot(system)
        assert check_consistent(snapshot, h, evader.region) == []
        return system

    def test_sync_overhead_scales_with_m(self, h):
        sync_by_m = {}
        for m in (1, 2, 3):
            system = self.run_walk(h, m)
            sync_by_m[m] = system.sync_messages
        assert sync_by_m[1] == 0
        assert sync_by_m[2] > 0
        # m−1 sync messages per update: m=3 sends twice as many as m=2.
        assert sync_by_m[3] == pytest.approx(2 * sync_by_m[2], rel=0.01)

    def test_replication_factor_validation(self, h):
        with pytest.raises(ValueError):
            ReplicatedVineStalk(h, replication_factor=0)
