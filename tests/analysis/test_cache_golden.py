"""Golden A/B: cached world vs freshly built world ⇒ identical executions.

The cache's contract is that it changes *when* topology work happens,
never *what* any simulation computes.  The fresh side runs on
``ScenarioConfig(hierarchy=grid_hierarchy(r, M))`` — a hierarchy, tiling,
route table and distance table the cache never saw.  Two end-to-end
checks:

* the full E1 move-cost experiment returns an equal result object on
  the cached world and on a fresh one;
* a seeded tracked-walk workload (moves + a find) produces an identical
  fingerprint — events fired, :func:`repro.ckpt.run_fingerprint` and
  the typed-event histogram — either way, equal to the pin.
"""

import random
import zlib

import pytest

import repro.obs as obs
from repro.analysis.experiments import run_move_walk
from repro.ckpt import run_fingerprint
from repro.hierarchy.grid import grid_hierarchy
from repro.mobility import RandomNeighborWalk
from repro.scenario import ScenarioConfig, build
from repro.topo import reset_topology_cache, topology_cache


@pytest.fixture(autouse=True)
def fresh_cache():
    reset_topology_cache()
    yield
    reset_topology_cache()


def fresh(config):
    """``config`` on a world built here, outside the cache."""
    return config.with_(hierarchy=grid_hierarchy(config.r, config.max_level))


#: The workload's (events fired, run fingerprint digest, typed-event
#: kinds), computed on the commit that fingerprinted the string trace.
GOLDEN = (
    118,
    "d699d0df",
    (
        ("evader-moved", 11),
        ("find-forward", 4),
        ("findquery", 1),
        ("found", 1),
        ("grow-sent", 8),
        ("message-dispatched", 112),
        ("shrink-sent", 4),
    ),
)


def run_workload(world=lambda config: config):
    """Seeded E1-style workload: 5 scheduled moves, one find, t=70."""
    scenario = build(world(ScenarioConfig(r=2, max_level=2, seed=5)))
    system = scenario.system
    regions = system.hierarchy.tiling.regions()
    center = regions[len(regions) // 2]
    with obs.observed() as collector:
        evader = system.make_evader(
            RandomNeighborWalk(start=center), dwell=1e12, start=center,
            rng=random.Random(5),
        )
        for k in range(1, 6):
            system.sim.call_at(10.0 * k, evader.step, tag="test-move")
        system.sim.call_at(
            55.0, lambda: system.issue_find(regions[0]), tag="test-find"
        )
        system.sim.run_until(70.0)
    return fingerprint(scenario, collector)


def fingerprint(scenario, collector):
    return (
        scenario.sim.events_fired,
        f"{zlib.crc32(repr(run_fingerprint(scenario)).encode()):08x}",
        tuple(sorted(collector.events_by_kind().items())),
    )


def test_e1_move_walk_identical_with_and_without_cache(monkeypatch):
    cached = run_move_walk(r=2, max_level=3, n_moves=40, seed=11)
    assert topology_cache().stats.hierarchy_misses == 1
    # The same runner, its world swapped for a fresh one at build time.
    monkeypatch.setattr(
        "repro.analysis.experiments.build", lambda config: build(fresh(config))
    )
    uncached = run_move_walk(r=2, max_level=3, n_moves=40, seed=11)
    assert topology_cache().stats.hierarchy_hits == 0
    assert cached == uncached


def test_workload_fingerprint_identical_with_and_without_cache():
    cached = run_workload()
    uncached = run_workload(fresh)
    assert topology_cache().stats.hierarchy_hits == 0
    assert cached == uncached == GOLDEN


def test_repeated_cached_runs_share_state_but_not_results():
    # Two cached runs share one hierarchy object yet stay bit-identical
    # to each other — the shared structures are read-only to workloads.
    first = run_workload()
    second = run_workload()
    assert first == second
