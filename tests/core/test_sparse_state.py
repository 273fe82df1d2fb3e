"""A §IV-C state costs what its tracking path touches.

``SystemSnapshot`` keeps only non-⊥ records, ``capture_snapshot`` reads
only built Trackers, and ``check_consistent`` visits only the non-⊥
records and the neighbours of processes with ``p ≠ ⊥``.  These tests
check that the sparse snapshot and checker agree with the dense ones
(every cluster of the world, ``tests/core/_path_oracles.py``) on
arbitrary and mid-flight states, and that no check walks the world.
"""

import random

import pytest

from repro.analysis.experiments import _settled_walker, _walk, run_equivalence_check
from repro.analysis.render import render_path
from repro.core import VineStalk, capture_snapshot, check_consistent, look_ahead
from repro.hierarchy import grid_hierarchy
from repro.hierarchy.grid import GridHierarchy
from repro.mobility import FixedPath, RandomNeighborWalk
from repro.obs.conformance import ConformanceSampler
from repro.scenario import ScenarioConfig, build
from repro.stabilization import StabilizationConfig, StabilizingVineStalk

from ._path_oracles import (
    dense_capture_snapshot,
    dense_check_consistent,
    dense_copy,
)


def assert_sparse_matches_dense(system, region):
    """Snapshot, checker and lookAhead agree with the dense oracles."""
    hierarchy = system.hierarchy
    sparse = capture_snapshot(system)
    dense = dense_capture_snapshot(system)
    assert len(dense.pointers) == len(hierarchy.all_clusters())
    assert sparse.pointer_map() == dense.pointer_map()
    assert sparse.in_transit == dense.in_transit
    assert check_consistent(sparse, hierarchy, region) == dense_check_consistent(
        dense, hierarchy, region
    )
    future = look_ahead(sparse, hierarchy, strict=False)
    assert future.pointer_map() == look_ahead(dense, hierarchy, strict=False).pointer_map()
    assert check_consistent(future, hierarchy, region) == dense_check_consistent(
        dense_copy(future, hierarchy), hierarchy, region
    )
    return check_consistent(sparse, hierarchy, region)


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_sparse_equals_dense_on_corrupted_states(seed):
    """Off-path c/p, stray and missing secondaries, and the repair traffic."""
    config = StabilizationConfig(period_base=20.0, scale=2.0, miss_limit=3)
    system = StabilizingVineStalk(grid_hierarchy(3, 2), stabilization=config)
    system.make_evader(FixedPath([(4, 4)]), dwell=1e12, start=(4, 4))
    system.start_anchor_refresh()
    system.run(config.period(0) * 5)
    rng = random.Random(seed)
    system.corrupt(rng, 8)
    problems = 0
    for _ in range(12):
        problems += len(assert_sparse_matches_dense(system, (4, 4)))
        system.run(rng.uniform(0.0, 15.0))
    assert problems > 0  # the corrupted states were not all consistent


@pytest.mark.parametrize("r, max_level", [(2, 3), (3, 2)])
def test_sparse_equals_dense_mid_flight(r, max_level):
    """Random walks probed at random instants, settled or not."""
    rng = random.Random(r)
    system = VineStalk(grid_hierarchy(r, max_level))
    start = (rng.randrange(r**max_level), rng.randrange(r**max_level))
    evader = system.make_evader(
        RandomNeighborWalk(start=start), dwell=1e12, start=start, rng=rng
    )
    system.run_to_quiescence()
    problems = 0
    for _ in range(15):
        evader.step()
        for _probe in range(3):
            system.run(rng.uniform(0.0, 6.0))
            problems += len(assert_sparse_matches_dense(system, evader.region))
        system.run_to_quiescence()
        assert assert_sparse_matches_dense(system, evader.region) == []
    assert problems > 0  # some probes caught a move in flight


def test_the_checks_never_walk_the_world(monkeypatch):
    """r=2, MAX=8 (87,381 clusters): no check reads every cluster."""

    def refuse(self):
        raise AssertionError("a check walked every cluster of the world")

    monkeypatch.setattr(GridHierarchy, "all_clusters", refuse)
    system = build(ScenarioConfig(r=2, max_level=8, seed=11)).system
    hierarchy = system.hierarchy
    evader = _settled_walker(system, random.Random(11))
    sampler = ConformanceSampler(system, stride=16).attach()
    _walk(system, evader, 10)
    sampler.detach()
    snapshot = capture_snapshot(system)
    assert check_consistent(snapshot, hierarchy, evader.region) == []
    assert look_ahead(snapshot, hierarchy).pointer_map() == snapshot.pointer_map()
    assert "tracking path (terminated)" in render_path(hierarchy, snapshot)
    assert run_equivalence_check(2, 8, 6) == (24, 0)
    assert sampler.total_violations() == 0
    assert sampler.checks_run["theorem-4.8"] > 0
    assert len(snapshot.pointers) <= len(system.trackers.built)
    omega = max(hierarchy.params.omega(level) for level in hierarchy.levels())
    assert len(snapshot.pointer_map()) <= 2 * (hierarchy.max_level + 1) * (omega + 1)
