"""System-level tests for the VineStalk assembly and the §III spec.

The tracking-service specification: every find is eventually followed by
a found; every found occurs at a region hosting the mobile object and
responds to a prior find.
"""

import random

import pytest

from repro.core import (
    EmulatedVineStalk,
    Found,
    TrackingClient,
    VineStalk,
    uniform_schedule,
)
from repro.hierarchy import grid_hierarchy
from repro.mobility import FixedPath, RandomNeighborWalk


@pytest.fixture()
def h():
    return grid_hierarchy(3, 2)


class TestAssembly:
    def test_one_tracker_per_cluster(self, h):
        system = VineStalk(h)
        assert len(system.trackers) == 81 + 9 + 1

    def test_one_client_per_region(self, h):
        system = VineStalk(h)
        assert len(system.clients) == 81
        for region, client in system.clients.items():
            assert client.region == region

    def test_trackers_hosted_at_head_vsa(self, h):
        system = VineStalk(h)
        for clust, tracker in system.trackers.items():
            head = h.head(clust)
            hosted = system.network.host(head).subautomata()
            assert tracker in hosted

    def test_tracker_lookup_helpers(self, h):
        system = VineStalk(h)
        assert system.tracker_at((4, 4), 1).clust == h.cluster((4, 4), 1)
        assert system.tracker(h.root()).lvl == 2

    def test_non_grid_hierarchy_needs_schedule(self, h):
        # Strip the grid marker: schedule can no longer be defaulted.
        class Anon:
            pass

        anon = Anon()
        anon.params = h.params
        anon.tiling = h.tiling
        with pytest.raises(ValueError):
            VineStalk(anon)

    def test_explicit_schedule_accepted(self, h):
        schedule = uniform_schedule(h.params, 1.0, 0.5)
        system = VineStalk(h, schedule=schedule)
        assert system.schedule is schedule

    def test_second_evader_rejected(self, h):
        system = VineStalk(h)
        system.make_evader(FixedPath([(0, 0)]), dwell=1.0, start=(0, 0))
        with pytest.raises(RuntimeError):
            system.make_evader(FixedPath([(0, 0)]), dwell=1.0, start=(0, 0))


class TestTrackingServiceSpec:
    def test_every_find_followed_by_found(self, h):
        system = VineStalk(h)
        rng = random.Random(3)
        evader = system.make_evader(
            RandomNeighborWalk(start=(4, 4)), dwell=1e12, start=(4, 4), rng=rng
        )
        system.run_to_quiescence()
        for _ in range(10):
            evader.step()
            system.run_to_quiescence()
            origin = rng.choice(h.tiling.regions())
            system.issue_find(origin)
            system.run_to_quiescence()
        assert system.finds.completion_rate() == 1.0

    def test_found_occurs_at_evader_region(self, h):
        system = VineStalk(h)
        evader = system.make_evader(
            FixedPath([(4, 4), (5, 5)]), dwell=1e12, start=(4, 4)
        )
        system.run_to_quiescence()
        evader.step()
        system.run_to_quiescence()
        find_id = system.issue_find((0, 0))
        system.run_to_quiescence()
        record = system.finds.records[find_id]
        assert record.found_region == evader.region == (5, 5)

    def test_found_responds_to_prior_find_only(self, h):
        """Clients not hosting the evader never output found."""
        system = VineStalk(h)
        system.make_evader(FixedPath([(4, 4)]), dwell=1e12, start=(4, 4))
        system.run_to_quiescence()
        system.issue_find((0, 0))
        system.run_to_quiescence()
        for region, client in system.clients.items():
            if region == (4, 4):
                assert client.founds_output >= 1
            else:
                assert client.founds_output == 0

    def test_concurrent_finds_all_complete(self, h):
        system = VineStalk(h)
        system.make_evader(FixedPath([(4, 4)]), dwell=1e12, start=(4, 4))
        system.run_to_quiescence()
        ids = [system.issue_find(origin) for origin in [(0, 0), (8, 8), (0, 8), (8, 0)]]
        system.run_to_quiescence()
        for find_id in ids:
            assert system.finds.records[find_id].completed


class TestClientAlgorithm:
    def test_move_sends_grow_with_self_cid(self, h):
        system = VineStalk(h)
        records = []
        system.cgcast.observe(records.extend)
        evader = system.make_evader(FixedPath([(2, 2)]), dwell=1e12, start=(2, 2))
        grows = [r for r in records if r.payload.kind == "grow"]
        assert len(grows) == 1
        assert grows[0].payload.cid == h.cluster((2, 2), 0)
        assert grows[0].dest == h.cluster((2, 2), 0)

    def test_left_sends_shrink(self, h):
        system = VineStalk(h)
        records = []
        system.cgcast.observe(records.extend)
        evader = system.make_evader(
            FixedPath([(2, 2), (3, 3)]), dwell=1e12, start=(2, 2)
        )
        system.run_to_quiescence()
        records.clear()
        evader.step()
        shrinks = [r for r in records if r.payload.kind == "shrink"]
        assert len(shrinks) == 1
        assert shrinks[0].payload.cid == h.cluster((2, 2), 0)

    def test_stale_evader_notification_ignored(self, h):
        system = VineStalk(h)
        client = system.clients[(2, 2)]
        from repro.tioa import Action

        client.handle_input(Action.input("move", region=(3, 3)))  # not our region
        assert not client.evader_here

    def test_found_without_evader_not_output(self, h):
        system = VineStalk(h)
        client = system.clients[(2, 2)]
        client.on_message(Found(find_id=1))
        assert client.founds_output == 0


class TestEmulatedSystem:
    def test_kill_and_recover(self, h):
        system = EmulatedVineStalk(h, nodes_per_region=1, t_restart=2.0)
        evader = system.make_evader(
            RandomNeighborWalk(start=(4, 4)), dwell=1e12, start=(4, 4),
            rng=random.Random(1),
        )
        system.run_to_quiescence()
        assert system.path_is_intact()
        head = h.head(h.cluster((4, 4), 1))
        assert system.kill_region(head) == 1
        assert head in system.failed_regions()
        assert not system.path_is_intact()
        system.revive_region(head)
        system.run(5.0)
        assert head not in system.failed_regions()
        # The tracker restarted from initial state: path rebuilt by moves.
        recovered = False
        for _ in range(30):
            evader.step()
            system.run_to_quiescence()
            if system.path_is_intact():
                recovered = True
                break
        assert recovered

    def test_finds_still_work_away_from_failures(self, h):
        system = EmulatedVineStalk(h, nodes_per_region=1, t_restart=2.0)
        system.make_evader(FixedPath([(4, 4)]), dwell=1e12, start=(4, 4))
        system.run_to_quiescence()
        system.kill_region((0, 8))  # far corner, not on the path
        find_id = system.issue_find((8, 0))
        system.run_to_quiescence()
        assert system.finds.records[find_id].completed
