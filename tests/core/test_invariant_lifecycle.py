"""Conformance-sampler lifecycle: attach/detach is a guaranteed inverse.

The regression this pins down: a checker used to hold its hooks (then a
trace subscription and an evader observer) forever, so back-to-back
sweep jobs in one process accumulated them.  ``detach()`` must remove
the after-event hook, the evader observer and the collector
subscription, be idempotent, and run even when the checked job raises —
which :func:`~repro.analysis.experiments.run_invariant_watch` relies on.
"""

import random

import pytest

import repro.analysis.experiments as experiments
import repro.obs as obs
from repro.analysis.parallel import JobSpec, SweepRunner
from repro.mobility import RandomNeighborWalk
from repro.obs.conformance import ConformanceSampler
from repro.scenario import ScenarioConfig, build


def tracked_system(seed=4):
    scenario = build(ScenarioConfig(r=2, max_level=2, seed=seed))
    system = scenario.system
    start = system.hierarchy.tiling.regions()[0]
    evader = system.make_evader(
        RandomNeighborWalk(start=start), dwell=1e12, start=start,
        rng=random.Random(seed),
    )
    return system, evader


def hooks(system, collector):
    """(after-event hooks, evader observers, collector subscriptions)."""
    after_event = system.sim._after_event
    return (
        0 if after_event is None else len(after_event),
        system.evader.observer_count,
        collector.subscriber_count,
    )


def test_stop_restores_subscriber_and_observer_counts():
    system, _ = tracked_system()
    with obs.observed() as collector:
        baseline = hooks(system, collector)
        sampler = ConformanceSampler(system, stride=1).attach()
        assert hooks(system, collector) == (1, 2, 1)
        system.run_to_quiescence()
        sampler.detach()
        assert hooks(system, collector) == baseline == (0, 1, 0)


def test_stop_is_idempotent_and_safe_before_watch():
    system, _ = tracked_system()
    with obs.observed() as collector:
        ConformanceSampler(system).detach()  # never attached: no-op

        sampler = ConformanceSampler(system).attach()
        sampler.detach()
        sampler.detach()
        assert hooks(system, collector) == (0, 1, 0)

        # attach again after detach: the sampler is reusable
        sampler.attach()
        assert hooks(system, collector) == (1, 2, 1)
        sampler.detach()


def test_watch_is_idempotent():
    system, _ = tracked_system()
    with obs.observed() as collector:
        sampler = ConformanceSampler(system)
        sampler.attach()
        sampler.attach()
        assert hooks(system, collector) == (1, 2, 1)  # GPS hookup + sampler
        sampler.detach()


def capture_samplers(monkeypatch):
    """Record every sampler ``run_invariant_watch`` attaches."""
    captured = []

    class Capturing(ConformanceSampler):
        def attach(self):
            captured.append(self)
            return super().attach()

    monkeypatch.setattr(obs, "ConformanceSampler", Capturing)
    return captured


def assert_unhooked(sampler):
    assert sampler.system.sim._after_event is None
    assert sampler.system.evader.observer_count == 1  # only the GPS hookup
    assert sampler.collector.subscriber_count == 0


def test_back_to_back_sweep_jobs_leave_no_subscribers(monkeypatch):
    """Two serial invariant-watch jobs: each ends with no hook left."""
    captured = capture_samplers(monkeypatch)
    spec = JobSpec(
        runner="invariant_watch",
        kwargs={"r": 2, "max_level": 2, "n_moves": 3, "seed": 8},
    )
    results = SweepRunner(workers=1).run([spec, spec])
    assert len(results) == 2
    assert results[0].value == results[1].value  # same seed, same verdicts
    assert results[0].value.lateral_sends > 0  # the GrowSent feed was live
    assert len(captured) == 2
    assert captured[0].collector is not captured[1].collector
    for sampler in captured:
        assert_unhooked(sampler)
    assert obs.collector() is None  # each job's obs scope was closed


def test_stop_runs_even_when_the_watched_run_raises(monkeypatch):
    captured = capture_samplers(monkeypatch)

    def blow_up(system, evader, n_moves):
        raise RuntimeError("job blew up mid-walk")

    monkeypatch.setattr(experiments, "_walk", blow_up)
    with pytest.raises(RuntimeError):
        experiments.run_invariant_watch(2, 2, n_moves=3, seed=8)
    (sampler,) = captured
    assert_unhooked(sampler)
    assert obs.collector() is None
