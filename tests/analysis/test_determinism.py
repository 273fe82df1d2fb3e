"""Determinism regression tests for the fast-lane core.

The golden numbers below were captured on the pre-fast-lane event loop;
the tuple-keyed queue, fused pop and hot-path caches must reproduce them
bit-for-bit — same seed, same work totals, same trace histogram, same
simulated clock.  A serial and a process-parallel sweep over the same
jobs must also agree exactly.
"""

import random

import pytest

from repro.analysis import (
    SweepRunner,
    job,
    run_baseline_comparison,
    run_find_sweep,
    run_move_walk,
)
from repro.analysis.parallel import RUNNERS
from repro.mobility import RandomNeighborWalk
from repro.scenario import ScenarioConfig, build

# Golden values captured from the seed implementation (r=2, MAX=3 world).
GOLDEN_E1_PER_MOVE_WORK = [
    8.0, 35.0, 8.0, 14.0, 14.0, 53.0, 11.0, 117.0, 11.0, 47.0,
]
GOLDEN_TRACE_KINDS = {
    "move": 6,
    "cTOBsend": 12,
    "rcv": 132,
    "perform": 122,
    "grow-sent": 9,
    "left": 5,
    "shrink-sent": 4,
    "input": 1,
    "findquery": 1,
    "find-forward": 4,
    "found": 1,
    "found-output": 1,
}
GOLDEN_E8_ROWS = [
    ("vinestalk", 145.0, 82.0),
    ("home-agent", 21.0, 14.0),
    ("awerbuch-peleg", 102.0, 47.0),
    ("flooding", 0.0, 73.0),
]
# Work includes the found-relay hops back to the querying client: find
# work is counted for every send tagged with the find id, completion or
# not, so the totals cannot depend on which shard observed completion
# (DESIGN.md section 9).  Latencies are untouched by that accounting.
GOLDEN_E2_ROWS = [
    (1, 13.0, 4.0, True),
    (1, 13.0, 4.0, True),
    (2, 24.0, 13.0, True),
    (2, 28.0, 13.0, True),
    (3, 25.0, 13.0, True),
    (3, 56.0, 37.0, True),
]


class TestGoldenValues:
    def test_move_walk_work_totals(self):
        res = run_move_walk(2, 3, 10, seed=11)
        assert res.per_move_work == GOLDEN_E1_PER_MOVE_WORK
        assert res.total_move_work == 318.0
        assert res.work_per_distance == 31.8
        assert res.mean_settle_time == 12.85
        assert res.max_settle_time == 40.0

    def test_trace_kind_histogram_and_accountant(self):
        system, accountant = build(
            ScenarioConfig(r=2, max_level=3, trace=True)
        ).parts()
        regions = system.hierarchy.tiling.regions()
        center = regions[len(regions) // 2]
        evader = system.make_evader(
            RandomNeighborWalk(start=center),
            dwell=1e12,
            start=center,
            rng=random.Random(7),
        )
        system.run_to_quiescence()
        for _ in range(5):
            evader.step()
            system.run_to_quiescence()
        system.issue_find(regions[0])
        system.run_to_quiescence()
        assert system.sim.trace.kinds() == GOLDEN_TRACE_KINDS
        assert accountant.move_work == 168.0
        assert accountant.find_work == 29.0
        assert accountant.other_work == 0.0
        assert accountant.messages == 141
        assert system.sim.events_fired == 149
        assert system.sim.now == 71.5

    def test_baseline_comparison_rows(self):
        rows = run_baseline_comparison(
            2, 3, n_moves=6, n_finds=3, find_distance=2, seed=61
        )
        assert [(r.algorithm, r.move_work, r.find_work) for r in rows] == (
            GOLDEN_E8_ROWS
        )

    def test_find_sweep_rows(self):
        rows = run_find_sweep(2, 3, [1, 2, 3], seed=21, finds_per_distance=2)
        assert [
            (r.distance, r.work, r.latency, r.completed) for r in rows
        ] == GOLDEN_E2_ROWS

    def test_same_seed_twice_is_identical(self):
        first = run_move_walk(2, 3, 10, seed=42)
        second = run_move_walk(2, 3, 10, seed=42)
        assert first == second


SWEEP_JOBS = [
    job("move_walk", r=2, max_level=3, n_moves=8, seed=11),
    job("move_walk", r=2, max_level=3, n_moves=8, seed=12),
    job("find_sweep", r=2, max_level=3, distances=[1, 2], seed=21,
        finds_per_distance=2),
    job("baseline_comparison", r=2, max_level=3, n_moves=4, n_finds=2,
        find_distance=2, seed=61),
]


def _record(log, tag, r=None, max_level=None):
    """Recording runner: appends its tag to ``log`` when executed."""
    with open(log, "a") as handle:
        handle.write(f"{tag}\n")
    return (r, max_level)


class TestSweepRunnerDeterminism:
    def test_serial_matches_direct_loop(self):
        direct = [
            run_move_walk(2, 3, 8, seed=11),
            run_move_walk(2, 3, 8, seed=12),
            run_find_sweep(2, 3, [1, 2], seed=21, finds_per_distance=2),
            run_baseline_comparison(
                2, 3, n_moves=4, n_finds=2, find_distance=2, seed=61
            ),
        ]
        assert SweepRunner(workers=1).run_values(SWEEP_JOBS) == direct

    def test_parallel_matches_serial(self):
        serial = SweepRunner(workers=1).run_values(SWEEP_JOBS)
        parallel = SweepRunner(workers=2).run_values(SWEEP_JOBS)
        assert parallel == serial

    def test_parallel_results_in_submission_order(self):
        results = SweepRunner(workers=2).run(SWEEP_JOBS)
        assert [r.spec for r in results] == SWEEP_JOBS

    def test_pool_runs_largest_world_first(self, tmp_path, monkeypatch):
        monkeypatch.setitem(RUNNERS, "record", f"{__name__}:_record")
        log = tmp_path / "executed.log"
        worlds = [(2, 2), (2, 4), (3, 2), (2, 3), (2, 4), (3, 3), (None, None)]
        jobs = [
            job("record", log=str(log), tag=tag, r=r, max_level=m)
            for tag, (r, m) in enumerate(worlds)
        ]
        serial = SweepRunner(workers=1).run_values(jobs)
        assert serial == worlds
        log.write_text("")
        # A one-worker pool runs tasks strictly in the order it was handed
        # them: 3^6 regions, the two 2^8 worlds in submission order, 3^4,
        # 2^6, 2^4, and the job whose world cannot be inferred last.
        results = SweepRunner(workers=2, mode="parallel")._run_pool(jobs, 1)
        assert log.read_text().split() == ["5", "1", "4", "2", "3", "0", "6"]
        assert [r.spec for r in results] == jobs
        assert [r.value for r in results] == serial
        parallel = SweepRunner(workers=2, mode="parallel").run_values(jobs)
        assert parallel == serial

    def test_unknown_runner_fails_before_forking(self):
        with pytest.raises(KeyError):
            SweepRunner(workers=2).run([job("no_such_runner")])
