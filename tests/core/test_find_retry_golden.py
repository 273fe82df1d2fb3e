"""Find retries under churn, and golden-number cost-model regressions."""

import pytest

from repro.core import EmulatedVineStalk, VineStalk, capture_snapshot
from repro.hierarchy import grid_hierarchy
from repro.mobility import FixedPath


class TestFindRetry:
    def test_retry_recovers_find_lost_to_vsa_failure(self):
        """A find that dies with a failed VSA is recovered by re-issue."""
        h = grid_hierarchy(3, 2)
        system = EmulatedVineStalk(h, nodes_per_region=1, t_restart=2.0)
        system.make_evader(FixedPath([(4, 4)]), dwell=1e12, start=(4, 4))
        system.run_to_quiescence()
        # Fail the querier's level-1 head so the search escalation dies.
        level1_head = h.head(h.cluster((0, 0), 1))
        system.kill_region(level1_head)
        find_id = system.issue_find((0, 0), retry_after=50.0, max_retries=5)
        system.run(60.0)
        record = system.finds.records[find_id]
        assert not record.completed  # still blocked
        # The VSA comes back; a later retry completes the find.
        system.revive_region(level1_head)
        system.run(300.0)
        assert record.completed
        assert record.retries >= 1

    def test_no_retry_after_completion(self):
        h = grid_hierarchy(3, 2)
        system = VineStalk(h)
        system.make_evader(FixedPath([(4, 4)]), dwell=1e12, start=(4, 4))
        system.run_to_quiescence()
        find_id = system.issue_find((0, 0), retry_after=100.0, max_retries=5)
        system.run(600.0)
        record = system.finds.records[find_id]
        assert record.completed
        assert record.latency < 100.0  # completed before the first retry
        assert record.retries == 0

    def test_retries_capped(self):
        h = grid_hierarchy(3, 2)
        system = EmulatedVineStalk(h, nodes_per_region=1, t_restart=1e6)
        system.make_evader(FixedPath([(4, 4)]), dwell=1e12, start=(4, 4))
        system.run_to_quiescence()
        system.kill_region((4, 4))  # the terminus VSA: find cannot finish
        find_id = system.issue_find((0, 0), retry_after=20.0, max_retries=2)
        system.run(500.0)
        record = system.finds.records[find_id]
        assert not record.completed
        assert record.retries == 2


class TestGoldenCosts:
    """Pinned values of the §II-C.3 cost model on a canonical scenario.

    These protect the cost algebra against silent regressions.  If a
    deliberate model change moves them, update the numbers *and* the
    corresponding EXPERIMENTS.md tables.
    """

    def canonical(self):
        h = grid_hierarchy(3, 2)
        system = VineStalk(h)  # δ=1, e=0.5, grid schedule
        from repro.analysis import WorkAccountant

        accountant = WorkAccountant().attach(system.cgcast)
        evader = system.make_evader(
            FixedPath([(4, 4), (3, 3)]), dwell=1e12, start=(4, 4)
        )
        system.run_to_quiescence()
        return h, system, evader, accountant

    def test_first_move_setup_work(self):
        h, system, evader, accountant = self.canonical()
        # Initial path build: client grow (1) + level-0 grow to parent
        # p(0)=2 + 8 growPar at n(0)=1 + level-1 grow to root p(1)=8
        # + 8 growPar at n(1)=5 = 1 + 2 + 8 + 8 + 40 = 59.
        assert accountant.move_work == 59.0

    def test_lateral_move_work(self):
        h, system, evader, accountant = self.canonical()
        mark = accountant.epoch()
        evader.step()  # (4,4) -> (3,3): in-block lateral reattach
        system.run_to_quiescence()
        delta = accountant.delta_since(mark)
        # In-block lateral reattach: client grow (1) + lateral grow
        # n(0)=1 + 8 growNbr at n(0)=1 + client shrink (1) = 11.  The old
        # terminus's own shrink never fires: the lateral grow repoints
        # its c before the s(0) timer expires (Eq. (1) in action).
        assert delta.move_work == 11.0

    def test_find_cost_from_adjacent_region(self):
        h, system, evader, accountant = self.canonical()
        find_id = system.issue_find((3, 4))  # adjacent to the evader
        system.run_to_quiescence()
        record = system.finds.records[find_id]
        # (3,4) holds nbrptdown=(3,3) (the lateral terminus), so the find
        # needs no neighbor queries: client find (1) + secondary-pointer
        # forward n(0)=1 + found broadcast with its 8 first-hop relays
        # (9) + 8 second-hop relays landing at the completion instant
        # = 19.  Every find-tagged send counts, completed or not — the
        # shard-invariant accounting of DESIGN.md section 9.
        assert record.work == 19.0
        assert record.latency == 4.0

    def test_exact_settle_time_of_first_move(self):
        h, system, evader, accountant = self.canonical()
        # Climb: δ=1 (client grow) + (δ+e)p(0)=3 (level-0 → level-1) +
        # (δ+e)p(1)=12 (level-1 → root); the trailing growPar broadcasts
        # overlap the climb. Quiescent at exactly 16.
        assert system.sim.now == 16.0