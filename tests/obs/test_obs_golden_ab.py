"""Golden A/B: observability on vs off ⇒ bit-identical executions.

The obs layer's contract mirrors the topology cache's: it may watch a
run, never steer one.  Spans only read the wall clock, typed events are
records of what already happened, and the conformance sampler is a pure
read of simulation state — so the same seeded workload must produce an
identical :func:`repro.ckpt.run_fingerprint` either way, equal to the
pin, and the instrumented run's typed events must match theirs.
"""

import random
import zlib

import repro.obs as obs
from repro.analysis.experiments import run_move_walk
from repro.ckpt import run_fingerprint
from repro.mobility import RandomNeighborWalk
from repro.scenario import ScenarioConfig, build

#: (events fired, run fingerprint digest, typed-event kinds) of the
#: workload, computed on the commit that fingerprinted the string trace.
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


def run_workload(sample_conformance=False):
    """Seeded E1-style workload: 5 scheduled moves, one find, t=70."""
    scenario = build(ScenarioConfig(r=2, max_level=2, seed=5))
    system = scenario.system
    regions = system.hierarchy.tiling.regions()
    center = regions[len(regions) // 2]
    evader = system.make_evader(
        RandomNeighborWalk(start=center), dwell=1e12, start=center,
        rng=random.Random(5),
    )
    sampler = None
    if sample_conformance:
        sampler = obs.ConformanceSampler(system, stride=8, strict=True)
        sampler.attach()
    for k in range(1, 6):
        system.sim.call_at(10.0 * k, evader.step, tag="test-move")
    system.sim.call_at(
        55.0, lambda: system.issue_find(regions[0]), tag="test-find"
    )
    system.sim.run_until(70.0)
    if sampler is not None:
        # NB: this workload schedules moves on a timer without quiescing,
        # so Lemma 4.1's atomic-timing hypothesis does not hold here and
        # verdicts are out of scope — the sampler rides along purely to
        # prove it does not perturb the run.
        sampler.detach()
        assert sampler.checks_run["theorem-4.8"] > 0
    return run_fingerprint(scenario)


def digest(fingerprint):
    return fingerprint[1], f"{zlib.crc32(repr(fingerprint).encode()):08x}"


def test_workload_fingerprint_identical_with_obs_on():
    baseline = run_workload()
    with obs.observed() as collector:
        instrumented = run_workload()
    assert instrumented == baseline
    assert (*digest(baseline), tuple(sorted(collector.events_by_kind().items()))) == (
        GOLDEN
    )


def test_workload_fingerprint_identical_with_conformance_sampler():
    baseline = run_workload()
    with obs.observed():
        sampled = run_workload(sample_conformance=True)
    assert sampled == baseline
    assert digest(baseline) == GOLDEN[:2]


def test_e1_move_walk_identical_with_obs_on():
    baseline = run_move_walk(r=2, max_level=3, n_moves=40, seed=11)
    with obs.observed():
        instrumented = run_move_walk(r=2, max_level=3, n_moves=40, seed=11)
    assert instrumented == baseline
