"""Tests for multi-object tracking and pursuit coordination (§VII)."""

import pytest

from repro.coordination import CommandCenter, PursuitGame
from repro.geometry import GridTiling
from repro.hierarchy import grid_hierarchy
from repro.mobility import FixedPath
from repro.scenario import ScenarioConfig, build
from repro.sim import Simulator


@pytest.fixture()
def h():
    return grid_hierarchy(3, 2)


class TestMultiVineStalk:
    """Several evaders on lanes ``1..n`` of one ``VineStalk`` (DESIGN §9),
    the one multi-object mechanism ``PursuitGame`` runs on."""

    @staticmethod
    def system_on(h):
        return build(ScenarioConfig(hierarchy=h)).parts()

    def test_planes_track_independently(self, h):
        system, _ = self.system_on(h)
        system.make_evader(FixedPath([(0, 0)]), 1e12, start=(0, 0), object_id=1)
        system.make_evader(FixedPath([(8, 8)]), 1e12, start=(8, 8), object_id=2)
        system.run_to_quiescence()
        fa = system.issue_find((4, 4), object_id=1)
        fb = system.issue_find((4, 4), object_id=2)
        system.run_to_quiescence()
        assert system.finds.records[fa].found_region == (0, 0)
        assert system.finds.records[fb].found_region == (8, 8)

    def test_duplicate_evader_id_rejected(self, h):
        system, _ = self.system_on(h)
        system.make_evader(FixedPath([(0, 0)]), 1e12, start=(0, 0), object_id=1)
        with pytest.raises(RuntimeError):
            system.make_evader(FixedPath([(1, 1)]), 1e12, start=(1, 1), object_id=1)

    def test_remove_evader(self, h):
        """A caught evader is ``stop()``ped: it stays put, the others go on."""
        system, _ = self.system_on(h)
        a = system.make_evader(
            FixedPath([(0, 0), (1, 1), (2, 2)]), 5.0, start=(0, 0), object_id=1
        )
        b = system.make_evader(
            FixedPath([(8, 8), (7, 7), (6, 6)]), 5.0, start=(8, 8), object_id=2
        )
        a.start()
        b.start()
        system.run(7.0)
        a.stop()
        a.stop()  # idempotent
        system.run(100.0)
        assert (a.region, b.region) == ((1, 1), (6, 6))
        find = system.issue_find((4, 4), object_id=2)
        system.run(200.0)
        assert system.finds.records[find].found_region == (6, 6)

    def test_shared_clock(self, h):
        system, _ = self.system_on(h)
        a = system.make_evader(FixedPath([(0, 0), (1, 1)]), 5.0, start=(0, 0), object_id=1)
        b = system.make_evader(FixedPath([(8, 8), (7, 7)]), 5.0, start=(8, 8), object_id=2)
        a.start()
        b.start()
        system.run(10.0)
        assert system.sim.now == 10.0
        assert (a.region, b.region) == ((1, 1), (7, 7))

    def test_per_plane_accounting(self, h):
        """One accountant serves every lane; a lane's moves add only its work."""
        system, accountant = self.system_on(h)
        a = system.make_evader(FixedPath([(0, 0), (1, 1)]), 1e12, start=(0, 0), object_id=1)
        system.make_evader(FixedPath([(8, 8)]), 1e12, start=(8, 8), object_id=2)
        system.run_to_quiescence()
        setup = accountant.epoch()
        a.step()
        system.run_to_quiescence()
        moved = accountant.epoch()
        assert moved.move_work > setup.move_work
        assert moved.find_work == setup.find_work == 0


class TestCommandCenter:
    @pytest.fixture()
    def center(self):
        sim = Simulator()
        tiling = GridTiling(9)
        return CommandCenter(sim, tiling, region=(4, 4))

    def test_report_stores_sighting_and_charges_distance(self, center):
        center.report("a", (0, 0))
        assert center.last_sighting("a").region == (0, 0)
        assert center.report_work == 4  # Chebyshev distance to (4,4)

    def test_assignments_are_overlap_free(self, center):
        center.report("e1", (0, 0))
        center.report("e2", (8, 8))
        assignment = center.assign({"p1": (1, 1), "p2": (7, 7)})
        assert assignment == {"p1": "e1", "p2": "e2"}

    def test_greedy_prefers_globally_short_pairs(self, center):
        center.report("e1", (0, 0))
        center.report("e2", (8, 8))
        # Both pursuers near e1; the second is pushed to e2.
        assignment = center.assign({"p1": (0, 1), "p2": (1, 1)})
        assert sorted(assignment.values()) == ["e1", "e2"]
        assert assignment["p1"] == "e1"  # p1 is strictly closer

    def test_surplus_pursuers_get_backup_targets(self, center):
        center.report("e1", (0, 0))
        assignment = center.assign({"p1": (1, 1), "p2": (2, 2), "p3": (3, 3)})
        assert all(v == "e1" for v in assignment.values())

    def test_no_sightings_no_targets(self, center):
        assert center.assign({"p1": (0, 0)}) == {"p1": None}

    def test_forget(self, center):
        center.report("a", (0, 0))
        center.forget("a")
        assert center.last_sighting("a") is None

    def test_naive_assignment_overlaps(self):
        tiling = GridTiling(9)
        assignment = CommandCenter.naive_assignment(
            tiling,
            {"p1": (0, 0), "p2": (1, 1)},
            {"e1": (2, 2), "e2": (8, 8)},
        )
        assert assignment == {"p1": "e1", "p2": "e1"}  # both pile on e1


class TestPursuitGame:
    GAME_KWARGS = dict(
        n_evaders=3,
        n_pursuers=3,
        seed=7,
        evader_dwell=50.0,
        pursuer_speed=2,
        evader_starts=[(2, 13), (13, 13), (13, 2)],
        pursuer_starts=[(0, 0), (1, 0), (0, 1)],
    )

    def test_coordinated_game_catches_everyone(self):
        h = grid_hierarchy(2, 4)
        game = PursuitGame(h, coordinated=True, **self.GAME_KWARGS)
        result = game.play(max_rounds=80, round_period=50.0)
        assert result.all_caught
        assert sorted(result.caught) == ["evader-0", "evader-1", "evader-2"]
        assert result.find_work > 0
        assert result.report_work > 0

    def test_coordination_beats_naive_on_clustered_pursuers(self):
        h = grid_hierarchy(2, 4)
        coordinated = PursuitGame(h, coordinated=True, **self.GAME_KWARGS).play(
            max_rounds=80, round_period=50.0
        )
        naive = PursuitGame(h, coordinated=False, **self.GAME_KWARGS).play(
            max_rounds=80, round_period=50.0
        )
        assert coordinated.all_caught
        assert coordinated.rounds <= naive.rounds
        assert coordinated.find_work < naive.find_work

    def test_single_pursuer_sweeps_all_evaders(self):
        h = grid_hierarchy(3, 2)
        game = PursuitGame(
            h,
            n_evaders=2,
            n_pursuers=1,
            coordinated=True,
            seed=3,
            evader_dwell=100.0,
            pursuer_speed=3,
        )
        result = game.play(max_rounds=80, round_period=40.0)
        assert result.all_caught
