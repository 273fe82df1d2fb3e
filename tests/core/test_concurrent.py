"""§VI: concurrent move and find operations."""

import random

import pytest

from repro.analysis.experiments import run_concurrent
from repro.core import VineStalk
from repro.hierarchy import grid_hierarchy
from repro.mobility import RandomNeighborWalk, concurrent_dwell


def test_concurrent_moves_same_work_as_atomic():
    """Per-move triggered work matches the atomic case (§VI claim)."""
    result = run_concurrent(3, 2, n_moves=20, n_finds=6, seed=7)
    assert result.moves > 0
    assert result.work_ratio == pytest.approx(1.0, rel=0.05)


def test_concurrent_finds_complete():
    result = run_concurrent(3, 2, n_moves=20, n_finds=10, seed=8)
    assert result.finds_issued == 10
    assert result.success_rate == 1.0
    assert result.mean_find_latency > 0


def test_search_overshoot_at_most_one_level():
    """§VI: a concurrent search climbs at most one level above atomic."""
    for seed in range(5):
        result = run_concurrent(3, 2, n_moves=15, n_finds=8, seed=seed)
        assert result.max_search_overshoot <= 1, f"seed {seed}"


def test_moving_evader_tracked_continuously():
    """Finds issued against a continuously moving evader still succeed."""
    h = grid_hierarchy(3, 2)
    system = VineStalk(h)
    dwell = concurrent_dwell(system.schedule, h.params, system.delta, system.e)
    rng = random.Random(4)
    evader = system.make_evader(
        RandomNeighborWalk(start=(4, 4)), dwell=dwell, start=(4, 4), rng=rng
    )
    system.run_to_quiescence()
    evader.start()
    issued = []
    for k in range(8):
        system.run(dwell * 2)
        issued.append(system.issue_find(rng.choice(h.tiling.regions())))
    evader.stop()
    system.run_to_quiescence()
    completed = [fid for fid in issued if system.finds.records[fid].completed]
    assert len(completed) == len(issued)
    for fid in completed:
        record = system.finds.records[fid]
        # the found region was the evader's region at some point near
        # completion; with region-granularity moves it is within one hop
        # of the region at completion time.
        assert record.found_region is not None


def test_faster_than_allowed_evader_still_usable():
    """§VII: moves faster than the speed restriction may leave a
    *non-consistent* structure (self-stabilization is future work), but
    the service must remain usable — finds keep completing."""
    h = grid_hierarchy(3, 2)
    system = VineStalk(h)
    rng = random.Random(6)
    evader = system.make_evader(
        RandomNeighborWalk(start=(4, 4)), dwell=1.0, start=(4, 4), rng=rng
    )
    system.run_to_quiescence()
    evader.start()
    system.run(30.0)  # burst of fast moves (dwell 1.0 << settle time)
    evader.stop()
    system.run_to_quiescence()
    # The structure may now be broken; subsequent settled moves rebuild
    # something usable within a modest number of steps.
    recovered_at = None
    for step in range(1, 31):
        evader.step()
        system.run_to_quiescence()
        find_id = system.issue_find((8, 8))
        system.run_to_quiescence()
        record = system.finds.records[find_id]
        if record.completed and record.found_region == evader.region:
            recovered_at = step
            break
    assert recovered_at is not None, "structure never became usable again"
