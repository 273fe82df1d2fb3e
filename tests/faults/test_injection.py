"""Determinism contracts of the fault-injection harness.

Two properties protect the repo's bit-for-bit reproducibility invariant:

1. **Null plans are provable no-ops** — arming any plan whose rules are
   all null must leave the execution identical to the fault-free run —
   same run fingerprint, same typed events (the interposition hooks fall
   through to the exact original delivery path).  Checked property-style over the null-rule
   vocabulary with hypothesis.
2. **Nonzero plans are deterministic** — same seed + same plan ⇒ the
   same execution, bit for bit, pinned by golden numbers captured from
   the current implementation.
"""

import random
import zlib

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.faults import (  # noqa: E402
    CHANNEL_BOTH,
    CHANNEL_CGCAST,
    CHANNEL_VBCAST,
    FaultPlan,
    GpsStaleness,
    LagSpike,
    MessageDuplication,
    MessageJitter,
    MessageLoss,
    RegionBlackout,
    VsaCrashes,
    default_plan,
)
import repro.obs as obs  # noqa: E402
from repro.ckpt import run_fingerprint  # noqa: E402
from repro.mobility import RandomNeighborWalk  # noqa: E402
from repro.scenario import ScenarioConfig, build  # noqa: E402


def run_workload(plan=None):
    """A fixed seeded workload: 5 scheduled moves, one find, run to t=70.

    Returns the scenario and the obs collector that saw its typed events.
    """
    scenario = build(ScenarioConfig(r=2, max_level=2, seed=5, fault_plan=plan))
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
    return scenario, collector


def fingerprint(scenario, collector):
    """(events fired, run fingerprint digest, typed-event kinds)."""
    return (
        scenario.sim.events_fired,
        f"{zlib.crc32(repr(run_fingerprint(scenario)).encode()):08x}",
        tuple(sorted(collector.events_by_kind().items())),
    )


@pytest.fixture(scope="module")
def baseline():
    """Fingerprint of the fault-free run (no plan at all)."""
    return fingerprint(*run_workload(plan=None))


channels = st.sampled_from([CHANNEL_CGCAST, CHANNEL_VBCAST, CHANNEL_BOTH])

null_rules = st.one_of(
    st.builds(MessageLoss, rate=st.just(0.0), channel=channels),
    st.builds(
        MessageDuplication, rate=st.just(0.0),
        copies=st.integers(min_value=1, max_value=3), channel=channels,
    ),
    st.builds(
        MessageJitter, rate=st.floats(min_value=0.0, max_value=1.0),
        max_extra=st.just(0.0), channel=channels,
    ),
    st.builds(
        MessageJitter, rate=st.just(0.0),
        max_extra=st.floats(min_value=0.0, max_value=10.0), channel=channels,
    ),
    st.builds(
        LagSpike, at=st.floats(min_value=0.0, max_value=50.0),
        duration=st.just(0.0), extra_e=st.floats(min_value=0.0, max_value=2.0),
    ),
    st.builds(
        VsaCrashes, rate=st.just(0.0),
        period=st.floats(min_value=1.0, max_value=100.0),
    ),
    st.builds(RegionBlackout, at=st.floats(min_value=0.0, max_value=50.0),
              duration=st.just(0.0), regions=st.just(((0, 0),))),
    st.builds(RegionBlackout, at=st.floats(min_value=0.0, max_value=50.0),
              regions=st.just(()), count=st.just(0)),
    st.builds(GpsStaleness, rate=st.just(0.0),
              delay=st.floats(min_value=0.0, max_value=20.0)),
    st.builds(GpsStaleness, rate=st.floats(min_value=0.0, max_value=1.0),
              delay=st.just(0.0)),
)

null_plans = st.builds(
    FaultPlan,
    rules=st.lists(null_rules, max_size=4).map(tuple),
    horizon=st.one_of(st.none(), st.floats(min_value=0.0, max_value=200.0)),
)


class TestNullPlansAreNoOps:
    @settings(max_examples=20, deadline=None)
    @given(plan=null_plans)
    def test_armed_null_plan_is_trace_identical(self, plan, baseline):
        assert plan.is_null()
        scenario, collector = run_workload(plan=plan)
        assert scenario.injector is not None  # armed, not skipped
        assert scenario.injector.stats.total_events() == 0
        assert fingerprint(scenario, collector) == baseline

    def test_default_plan_with_zero_knobs_is_trace_identical(self, baseline):
        plan = default_plan(loss_rate=0.0, crash_rate=0.0)
        assert plan.is_null()
        assert fingerprint(*run_workload(plan=plan)) == baseline


# Golden fingerprint of the nonzero chaos plan below, computed on the
# commit that fingerprinted the string trace.  Any change to RNG stream
# derivation, hook order or the interposition path shows up here as a
# diff.
CHAOS_PLAN = default_plan(
    loss_rate=0.15, crash_rate=0.05, jitter_rate=0.2, jitter_max=4.0,
    gps_rate=0.25, gps_delay=3.0, crash_period=20.0, crash_downtime=15.0,
    horizon=60.0,
)
GOLDEN_CHAOS_FINGERPRINT = (
    103,
    "45299591",
    (
        ("evader-moved", 11),
        ("fault-crash", 4),
        ("fault-restore", 4),
        ("find-forward", 2),
        ("findquery", 2),
        ("grow-sent", 7),
        ("message-dispatched", 90),
        ("messages-perturbed", 31),
        ("shrink-sent", 5),
    ),
)


class TestNonzeroPlanDeterminism:
    def test_same_seed_same_plan_is_bit_identical(self):
        first = fingerprint(*run_workload(plan=CHAOS_PLAN))
        second = fingerprint(*run_workload(plan=CHAOS_PLAN))
        assert first == second

    def test_golden_fingerprint(self):
        assert fingerprint(*run_workload(plan=CHAOS_PLAN)) == (
            GOLDEN_CHAOS_FINGERPRINT
        )

    def test_chaos_plan_actually_perturbs(self, baseline):
        scenario, collector = run_workload(plan=CHAOS_PLAN)
        assert scenario.injector.stats.total_events() > 0
        assert fingerprint(scenario, collector) != baseline

    def test_different_seed_diverges(self):
        base = build(ScenarioConfig(r=2, max_level=2, seed=5, fault_plan=CHAOS_PLAN))
        other = build(ScenarioConfig(r=2, max_level=2, seed=6, fault_plan=CHAOS_PLAN))
        for scenario in (base, other):
            regions = scenario.system.hierarchy.tiling.regions()
            center = regions[len(regions) // 2]
            scenario.system.make_evader(
                RandomNeighborWalk(start=center), dwell=1e12, start=center,
                rng=random.Random(1),
            )
            scenario.system.sim.run_until(60.0)
        assert (
            base.injector.stats.as_dict() != other.injector.stats.as_dict()
            or base.system.sim.events_fired != other.system.sim.events_fired
        )


class TestTimelineRules:
    """Blackouts through an armed injector: hooks, stats and typed events."""

    def test_blackout_takes_regions_down_once_and_restores_them(self):
        import repro.obs as obs
        from repro.faults import FaultInjector

        scenario = build(ScenarioConfig(r=2, max_level=2, seed=5))
        system = scenario.system
        regions = system.hierarchy.tiling.regions()
        plan = FaultPlan.of(
            RegionBlackout(at=5.0, duration=10.0, regions=(regions[0],)),
            RegionBlackout(at=6.0, duration=2.0, regions=(regions[0],)),
            RegionBlackout(at=7.0, duration=10.0, count=2),
        )
        with obs.observed() as collector:
            injector = FaultInjector(system, plan, seed=5).arm()
            with pytest.raises(RuntimeError):
                injector.arm()
            system.sim.run_until(6.5)
            assert system.network.hosts[regions[0]].failed
            system.sim.run_until(30.0)
        # The overlapping second rule neither double-fails nor restores
        # early; the drawn pair may include the region already down.
        assert injector.stats.blackouts in (2, 3)
        assert injector.stats.restores == injector.stats.blackouts
        assert not any(host.failed for host in system.network.hosts.values())
        by_kind = collector.events_by_kind()
        assert by_kind["fault-crash"] == by_kind["fault-restore"]
        assert by_kind["fault-crash"] == injector.stats.blackouts
