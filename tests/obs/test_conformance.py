"""Online conformance sampler: striding, verdicts, strict-mode errors.

Key behaviours under test:

* a clean (fault-free) run reports **zero** violations with every check
  exercised;
* under a seeded fault plan, a strided sampler and an every-event
  sampler reach the **same verdicts** (``detach`` always runs a final
  check, so both judge the same final state);
* a strict-mode :class:`LookAheadError` surfaces as a structured
  ``theorem-4.8`` violation event — it never escapes the event loop;
* negative controls: at stride 1 a planted second pending grow is a
  ``lemma-4.1-grow`` violation and a doctored second lateral grow in one
  move epoch a ``lemma-4.2`` one;
* attach/detach leaves no hook behind (after-event, evader observer,
  collector subscription).
"""

import random

import pytest

import repro.obs as obs
from repro.faults.plan import CHANNEL_BOTH, FaultPlan, MessageLoss
from repro.hierarchy import grid_hierarchy
from repro.mobility import BoundaryOscillator, RandomNeighborWalk, worst_boundary_pair
from repro.obs import ConformanceViolation, GrowSent
from repro.obs.conformance import CHECKS, ConformanceSampler
from repro.scenario import ScenarioConfig, build


def run_lossy_walk(stride, strict=True, n_moves=25, seed=9):
    """Seeded 30% cgcast+vbcast loss walk, sampled at ``stride``."""
    plan = FaultPlan.of(MessageLoss(rate=0.3, channel=CHANNEL_BOTH))
    scenario = build(ScenarioConfig(
        r=2, max_level=2, seed=seed, fault_plan=plan,
    ))
    system = scenario.system
    regions = system.hierarchy.tiling.regions()
    center = regions[len(regions) // 2]
    evader = system.make_evader(
        RandomNeighborWalk(start=center), dwell=1e12, start=center,
        rng=random.Random(seed),
    )
    system.run_to_quiescence()
    sampler = ConformanceSampler(system, stride=stride, strict=strict)
    sampler.attach()
    for _ in range(n_moves):
        evader.step()
        system.run_to_quiescence()
    sampler.detach()
    return sampler


def run_clean_walk(stride=16, n_moves=8, seed=3):
    scenario = build(ScenarioConfig(r=2, max_level=2, seed=seed))
    system = scenario.system
    regions = system.hierarchy.tiling.regions()
    center = regions[len(regions) // 2]
    evader = system.make_evader(
        RandomNeighborWalk(start=center), dwell=1e12, start=center,
        rng=random.Random(seed),
    )
    system.run_to_quiescence()
    sampler = ConformanceSampler(system, stride=stride, strict=True)
    sampler.attach()
    for _ in range(n_moves):
        evader.step()
        system.run_to_quiescence()
    system.issue_find(regions[0])
    system.run_to_quiescence()
    sampler.detach()
    return sampler


def test_clean_run_reports_zero_violations():
    with obs.observed():
        sampler = run_clean_walk()
    assert sampler.total_violations() == 0
    assert sampler.verdicts() == {check: False for check in CHECKS}
    for check, runs in sampler.checks_run.items():
        if check != "lemma-4.2":  # fed per lateral grow, not per stride
            assert runs > 0, check
    assert sampler.max_grow_outstanding <= 1
    assert sampler.max_shrink_outstanding <= 1


def test_strided_and_every_event_sampling_agree_on_verdicts():
    with obs.observed():
        every = run_lossy_walk(stride=1)
        strided = run_lossy_walk(stride=197)
    # 30% loss wrecks the structure: the atomic reference diverges
    assert every.verdicts()["theorem-4.8"]
    assert every.verdicts() == strided.verdicts()
    # the strided sampler checked far less often yet judged the same
    assert strided.checks_run["theorem-4.8"] < every.checks_run["theorem-4.8"]


def test_sampler_works_without_collector():
    # no obs gate at all: lemma-4.1 / theorem-4.8 still run, and
    # violations are still counted on the sampler itself
    sampler = run_lossy_walk(stride=64)
    assert sampler.collector is None
    assert sampler.verdicts()["theorem-4.8"]
    assert all(isinstance(v, ConformanceViolation) for v in sampler.violations)


def corrupt_two_idle_trackers(system):
    """Plant two fake pending grows: strict lookAhead must reject this."""
    max_level = system.hierarchy.max_level
    idle = [
        t for t in system.trackers.values()
        if t.c is None and t.p is None and t.clust.level < max_level
    ]
    assert len(idle) >= 2, "need two off-path trackers to corrupt"
    for tracker in idle[:2]:
        tracker.c = tracker.clust  # any non-⊥ value seeds a pending grow


def test_strict_lookahead_error_becomes_violation_event_not_crash():
    with obs.observed() as collector:
        scenario = build(ScenarioConfig(r=2, max_level=2, seed=7))
        system = scenario.system
        regions = system.hierarchy.tiling.regions()
        system.make_evader(
            RandomNeighborWalk(start=regions[0]), dwell=1e12,
            start=regions[0], rng=random.Random(7),
        )
        system.run_to_quiescence()
        sampler = ConformanceSampler(system, stride=1, strict=True)
        sampler.attach()
        corrupt_two_idle_trackers(system)
        # drive one event through the loop: the after-event check must
        # record the LookAheadError, not raise it out of sim.run
        system.sim.call_at(system.sim.now + 1.0, lambda: None, tag="noop")
        system.sim.run_until(system.sim.now + 2.0)
        sampler.detach()
    assert sampler.verdicts()["theorem-4.8"]
    recorded = [v for v in sampler.violations if "lookAhead error" in v.detail]
    assert recorded, sampler.violations
    emitted = [e for e in collector.events
               if isinstance(e, ConformanceViolation)]
    assert any("lookAhead error" in e.detail for e in emitted)


def test_two_pending_grows_are_a_lemma_4_1_violation():
    scenario = build(ScenarioConfig(r=2, max_level=2, seed=7))
    system = scenario.system
    regions = system.hierarchy.tiling.regions()
    system.make_evader(
        RandomNeighborWalk(start=regions[0]), dwell=1e12,
        start=regions[0], rng=random.Random(7),
    )
    system.run_to_quiescence()
    sampler = ConformanceSampler(system, stride=1).attach()
    system.sim.call_at(system.sim.now + 1.0, lambda: None, tag="noop")
    system.sim.run()
    assert sampler.total_violations() == 0  # clean until planted
    corrupt_two_idle_trackers(system)
    system.sim.call_at(system.sim.now + 1.0, lambda: None, tag="noop")
    system.sim.run()
    sampler.detach()
    assert sampler.violation_counts["lemma-4.1-grow"] > 0
    assert sampler.violation_counts["lemma-4.1-shrink"] == 0
    assert sampler.max_grow_outstanding == 2


def test_a_second_lateral_grow_in_one_move_is_a_lemma_4_2_violation():
    h = grid_hierarchy(2, 3)
    scenario = build(ScenarioConfig(hierarchy=h))
    system = scenario.system
    a, b = worst_boundary_pair(h)
    evader = system.make_evader(BoundaryOscillator(a, b), dwell=1e12, start=a)
    with obs.observed() as collector:
        sampler = ConformanceSampler(system, stride=1).attach()
        system.run_to_quiescence()
        laterals = []
        while not laterals:
            evader.step()
            system.run_to_quiescence()
            laterals = [e for e in collector.events if type(e) is GrowSent and e.lateral]
        assert sampler.violation_counts["lemma-4.2"] == 0
        collector.emit(laterals[-1])  # the same level's lateral grow, again
        sampler.detach()
    assert sampler.violation_counts["lemma-4.2"] == 1
    (violation,) = [v for v in sampler.violations if v.check == "lemma-4.2"]
    assert f"level {laterals[-1].level} sent 2 lateral grows" in violation.detail


def test_non_strict_sampler_reports_mismatch_instead_of_error():
    scenario = build(ScenarioConfig(r=2, max_level=2, seed=7))
    system = scenario.system
    regions = system.hierarchy.tiling.regions()
    system.make_evader(
        RandomNeighborWalk(start=regions[0]), dwell=1e12,
        start=regions[0], rng=random.Random(7),
    )
    system.run_to_quiescence()
    sampler = ConformanceSampler(system, stride=1, strict=False)
    sampler.attach()
    corrupt_two_idle_trackers(system)
    sampler.check_now()
    sampler.detach()
    assert sampler.verdicts()["theorem-4.8"]
    assert all("lookAhead error" not in v.detail for v in sampler.violations)


def test_attach_detach_leaves_no_hooks():
    with obs.observed() as collector:
        scenario = build(ScenarioConfig(r=2, max_level=2, seed=2))
        system = scenario.system
        regions = system.hierarchy.tiling.regions()
        evader = system.make_evader(
            RandomNeighborWalk(start=regions[0]), dwell=1e12,
            start=regions[0], rng=random.Random(2),
        )
        observers_before = evader.observer_count
        subscribers_before = collector.subscriber_count
        sampler = ConformanceSampler(system, stride=4)
        sampler.attach()
        sampler.attach()  # idempotent
        assert evader.observer_count == observers_before + 1
        assert collector.subscriber_count == subscribers_before + 1
        system.run_to_quiescence()
        sampler.detach()
        sampler.detach()  # idempotent
        assert evader.observer_count == observers_before
        assert collector.subscriber_count == subscribers_before
        assert system.sim._after_event is None
        # detach ran the final check even though attach saw no events
        assert sampler.checks_run["theorem-4.8"] > 0


def test_stride_must_be_positive():
    scenario = build(ScenarioConfig(r=2, max_level=2, seed=1))
    with pytest.raises(ValueError):
        ConformanceSampler(scenario.system, stride=0)
