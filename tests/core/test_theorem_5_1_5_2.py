"""Theorems 5.1 and 5.2: find locality.

Theorem 5.1 — in a consistent state, any region within q(l) of the
evader has its level-l cluster (or a neighbor) on the tracking path or
holding a secondary pointer to it.

Theorem 5.2 — a find launched distance d away costs O(d) work on the
grid; we check every find completes, lands at the evader's region, and
costs within the analytic per-level bound.
"""

import random

import pytest

from repro.analysis import (
    find_work_bound,
    growth_ratio,
    mean_find_work_by_distance,
    run_find_sweep,
    search_level_for_distance,
)
from repro.core import VineStalk, capture_snapshot, check_tracking_path
from repro.hierarchy import grid_hierarchy
from repro.mobility import RandomNeighborWalk


@pytest.fixture(scope="module")
def settled():
    """A settled system after a 25-step walk (module-scoped: read-only tests)."""
    h = grid_hierarchy(3, 2)
    system = VineStalk(h)
    rng = random.Random(9)
    evader = system.make_evader(
        RandomNeighborWalk(start=(4, 4)), dwell=1e12, start=(4, 4), rng=rng
    )
    system.run_to_quiescence()
    for _ in range(25):
        evader.step()
        system.run_to_quiescence()
    return h, system, evader


def test_theorem_5_1_coverage(settled):
    h, system, evader = settled
    snap = capture_snapshot(system)
    path, problems = check_tracking_path(snap, h, evader.region)
    assert problems == []
    on_path = set(path)
    params = h.params
    for u in h.tiling.regions():
        d = h.tiling.distance(u, evader.region)
        for level in range(h.max_level + 1):
            if d > params.q(level):
                continue
            cluster = h.cluster(u, level)
            candidates = [cluster] + h.nbrs(cluster)
            ok = any(
                c in on_path
                or snap.pointers[c].nbrptup is not None
                or snap.pointers[c].nbrptdown is not None
                for c in candidates
            )
            assert ok, f"region {u} level {level} has no handle on the path"


def test_finds_complete_from_every_region(settled):
    h, system, evader = settled
    for origin in h.tiling.regions():
        find_id = system.issue_find(origin)
        system.run_to_quiescence()
        record = system.finds.records[find_id]
        assert record.completed, f"find from {origin} never completed"
        assert record.found_region == evader.region


def test_find_work_within_analytic_bound(settled):
    h, system, evader = settled
    params = h.params
    for origin in h.tiling.regions():
        d = h.tiling.distance(origin, evader.region)
        find_id = system.issue_find(origin)
        system.run_to_quiescence()
        record = system.finds.records[find_id]
        level = search_level_for_distance(params, d)
        # Theorem 5.2 allows the secondary-pointer hop and tracing cost on
        # top of the per-level query cost; the analytic bound plus the
        # found-broadcast constant dominates every measured find.
        bound = find_work_bound(params, level) + 3 * params.n(level) + 16
        assert record.work <= bound, (
            f"find from {origin} (d={d}): work {record.work} > bound {bound}"
        )


def test_find_work_grows_linearly_not_quadratically():
    """E2 shape check: exponent close to 1 on a 16x16 grid."""
    results = run_find_sweep(2, 4, distances=[1, 2, 4, 8, 12], seed=4,
                             finds_per_distance=4)
    assert all(r.completed for r in results)
    pairs = mean_find_work_by_distance(results)
    xs = [d for d, _ in pairs]
    ys = [w for _, w in pairs]
    exponent = growth_ratio(xs, ys)
    assert exponent < 1.6, f"find work grows too fast (exp={exponent:.2f})"


def test_adjacent_find_is_constant_work(settled):
    h, system, evader = settled
    nbr = h.tiling.neighbors(evader.region)[0]
    find_id = system.issue_find(nbr)
    system.run_to_quiescence()
    record = system.finds.records[find_id]
    # d = 1 ⇒ search level 0: a handful of unit-distance messages.
    assert record.work <= find_work_bound(h.params, 0) + 3 * h.params.n(0) + 16


def test_find_at_evader_region_immediate(settled):
    h, system, evader = settled
    find_id = system.issue_find(evader.region)
    system.run_to_quiescence()
    record = system.finds.records[find_id]
    assert record.completed
    # Still O(1): the d=0 find is the client query plus the found
    # broadcast and its two relay hops (every find-tagged send counts,
    # completed or not — DESIGN.md section 9).
    assert record.work <= 20
