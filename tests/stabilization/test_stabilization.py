"""Tests for the self-stabilizing extension (§VII).

The paper sketches stabilization via heartbeats (as in STALK); these
tests verify the implemented mechanisms: leases drop stale pointers,
type repair breaks illegal states (including pointer cycles heartbeats
alone would sustain), orphaned segments re-grow, and the system
converges from random multi-pointer corruption back to a consistent
state from which finds work.
"""

import random

import pytest

from repro.core import capture_snapshot, check_consistent
from repro.hierarchy import grid_hierarchy
from repro.mobility import FixedPath, RandomNeighborWalk
from repro.stabilization import (
    Heartbeat,
    HeartbeatAck,
    StabilizationConfig,
    StabilizingVineStalk,
)

CONFIG = StabilizationConfig(period_base=20.0, scale=2.0, miss_limit=3)


def make_system(max_level=2, r=3, start=(4, 4)):
    h = grid_hierarchy(r, max_level)
    system = StabilizingVineStalk(h, stabilization=CONFIG)
    evader = system.make_evader(FixedPath([start]), dwell=1e12, start=start)
    # The anchor refresh must run from the start: without it the anchor
    # lease (correctly) dissolves the level-0 self-pointer.
    system.start_anchor_refresh()
    system.run(CONFIG.period(0) * 5)
    return h, system, evader


class TestLeases:
    def test_stale_child_pointer_dropped(self):
        h, system, evader = make_system()
        tracker = system.tracker_at((4, 4), 1)
        bogus = h.cluster((0, 0), 0)  # a child-typed but silent cluster
        tracker.c = bogus
        system.run(CONFIG.timeout(1) + 2 * CONFIG.period(1))
        assert tracker.c != bogus

    def test_stale_parent_pointer_dropped_and_regrows(self):
        h, system, evader = make_system()
        level0 = system.tracker_at((4, 4), 0)
        # Point the anchor's parent at an innocent neighbor cluster that
        # will never acknowledge (its c is ⊥).
        level0.p = h.nbrs(level0.clust)[0]
        system.run(CONFIG.timeout(0) + 4 * CONFIG.period(0))
        # The orphan re-grew: it is attached again and consistent.
        assert system.time_to_converge(max_time=600.0, probe=7.0) is not None

    def test_anchor_lease_dissolves_fake_anchor(self):
        h, system, evader = make_system()
        fake = system.tracker_at((0, 0), 0)  # evader is NOT here
        fake.c = fake.clust
        system.run(CONFIG.timeout(0) + 3 * CONFIG.period(0))
        assert fake.c is None

    def test_real_anchor_survives_refresh(self):
        h, system, evader = make_system()
        anchor = system.tracker_at((4, 4), 0)
        system.run(CONFIG.timeout(0) * 3)
        assert anchor.c == anchor.clust  # refreshed by the client re-grow

    def test_stale_secondary_pointer_expires(self):
        h, system, evader = make_system()
        tracker = system.tracker_at((0, 0), 1)
        bogus = h.nbrs(tracker.clust)[0]
        # That neighbor is off-path: nobody refreshes this pointer.
        tracker.nbrptdown = bogus
        system.run(CONFIG.timeout(1) + 2 * CONFIG.period(1))
        assert tracker.nbrptdown is None

    def test_live_secondary_pointers_survive(self):
        h, system, evader = make_system()
        on_path = h.cluster((4, 4), 1)
        for nbr in h.nbrs(on_path):
            assert system.trackers[nbr].nbrptup == on_path
        system.run(CONFIG.timeout(1) * 3)
        for nbr in h.nbrs(on_path):
            assert system.trackers[nbr].nbrptup == on_path


class TestTypeRepair:
    def test_same_level_pointer_cycle_is_broken(self):
        """A ↔ B lateral cycle: heartbeats alone would keep it alive."""
        h, system, evader = make_system()
        a = system.tracker_at((0, 0), 1)
        b_cluster = h.nbrs(a.clust)[0]
        b = system.trackers[b_cluster]
        a.c, a.p = b.clust, b.clust
        b.c, b.p = a.clust, a.clust
        system.run(CONFIG.timeout(1) + 4 * CONFIG.period(1))
        # The lateral-c typing rule killed the cycle.
        assert not (a.c == b.clust and b.c == a.clust)
        assert system.time_to_converge(max_time=1000.0, probe=7.0) is not None

    def test_illegal_parent_value_cleared(self):
        h, system, evader = make_system()
        tracker = system.tracker_at((0, 0), 0)
        tracker.p = h.cluster((8, 8), 0)  # not a neighbor nor the parent
        system.run(2 * CONFIG.period(0))
        assert tracker.p is None

    def test_illegal_child_value_cleared(self):
        h, system, evader = make_system()
        tracker = system.tracker_at((0, 0), 1)
        tracker.c = h.cluster((8, 8), 0)  # far away: not a child/neighbor
        system.run(2 * CONFIG.period(1))
        assert tracker.c is None


class TestConvergence:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_converges_from_random_corruption(self, seed):
        h, system, evader = make_system()
        rng = random.Random(seed)
        system.corrupt(rng, 6)
        elapsed = system.time_to_converge(max_time=3000.0, probe=7.0)
        assert elapsed is not None, "never converged"
        find_id = system.issue_find((0, 0))
        system.run(300.0)
        record = system.finds.records[find_id]
        assert record.completed
        assert record.found_region == (4, 4)

    def test_repeated_storms(self):
        h, system, evader = make_system()
        rng = random.Random(9)
        for _ in range(4):
            system.corrupt(rng, 5)
            assert system.time_to_converge(max_time=3000.0, probe=7.0) is not None
        assert sum(t.repairs for t in system.trackers.values()) > 0

    def test_converges_while_evader_moves(self):
        h = grid_hierarchy(3, 2)
        system = StabilizingVineStalk(h, stabilization=CONFIG)
        rng = random.Random(4)
        evader = system.make_evader(
            RandomNeighborWalk(start=(4, 4)), dwell=1e12, start=(4, 4), rng=rng
        )
        system.start_anchor_refresh()
        system.run(100.0)
        system.corrupt(rng, 4)
        for _ in range(5):
            evader.step()
            system.run(150.0)
        assert system.time_to_converge(max_time=3000.0, probe=7.0) is not None

    def test_baseline_without_corruption_stays_consistent(self):
        h, system, evader = make_system()
        assert system.time_to_converge(max_time=500.0, probe=7.0) is not None
        assert sum(t.repairs for t in system.trackers.values()) == 0


class TestHeartbeatMessages:
    def test_heartbeats_flow_on_the_path(self):
        h, system, evader = make_system()
        seen = []
        system.cgcast.observe(
            lambda recs: seen.extend(type(rec.payload).__name__ for rec in recs)
        )
        system.run(CONFIG.period(0) * 2 + 5)
        assert "Heartbeat" in seen
        assert "HeartbeatAck" in seen

    def test_heartbeat_overhead_is_bounded(self):
        """Maintenance traffic per period is O(path length · ω)."""
        from repro.analysis import WorkAccountant

        h, system, evader = make_system()
        accountant = WorkAccountant().attach(system.cgcast)
        system.run(25 * CONFIG.period(0))
        per_period = accountant.other_work / 25
        # 2 path processes beat (levels 0 and 1) + re-announcements.
        assert per_period < 200
