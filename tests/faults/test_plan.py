"""Unit tests for the fault-plan vocabulary (pure data, no simulator)."""

import pickle

import pytest

from repro.faults import (
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


class TestRuleNullness:
    def test_zero_rate_channel_rules_are_null(self):
        assert MessageLoss(rate=0.0).is_null()
        assert MessageDuplication(rate=0.0, copies=3).is_null()
        assert MessageJitter(rate=0.0, max_extra=5.0).is_null()
        assert MessageJitter(rate=0.5, max_extra=0.0).is_null()

    def test_nonzero_rules_are_not_null(self):
        assert not MessageLoss(rate=0.1).is_null()
        assert not VsaCrashes(rate=0.01).is_null()
        assert not RegionBlackout(at=10.0, regions=((0, 0),)).is_null()
        assert not GpsStaleness(rate=0.2, delay=5.0).is_null()
        assert not LagSpike(at=0.0, duration=10.0, extra_e=1.0).is_null()

    def test_degenerate_rules_are_null(self):
        assert VsaCrashes(rate=0.0, period=10.0).is_null()
        assert RegionBlackout(at=5.0, duration=0.0, regions=((0, 0),)).is_null()
        assert RegionBlackout(at=5.0, regions=(), count=0).is_null()
        assert GpsStaleness(rate=0.3, delay=0.0).is_null()
        assert LagSpike(duration=0.0, extra_e=1.0).is_null()
        assert LagSpike(duration=10.0, extra_e=0.0).is_null()


class TestChannels:
    def test_channel_selectors(self):
        assert MessageLoss(rate=0.1, channel=CHANNEL_CGCAST).applies_to("cgcast")
        assert not MessageLoss(rate=0.1, channel=CHANNEL_CGCAST).applies_to("vbcast")
        assert MessageLoss(rate=0.1, channel=CHANNEL_BOTH).applies_to("cgcast")
        assert MessageLoss(rate=0.1, channel=CHANNEL_BOTH).applies_to("vbcast")
        assert MessageJitter(
            rate=0.1, max_extra=2.0, channel=CHANNEL_VBCAST
        ).applies_to("vbcast")

    def test_rule_order_is_preserved(self):
        a = MessageLoss(rate=0.1, channel=CHANNEL_BOTH)
        b = MessageJitter(rate=0.1, max_extra=1.0, channel=CHANNEL_BOTH)
        assert FaultPlan.of(a, b).rules == (a, b)
        assert FaultPlan.of(b, a).rules == (b, a)


class TestValidation:
    def test_rate_range_enforced(self):
        with pytest.raises(ValueError):
            MessageLoss(rate=1.5)
        with pytest.raises(ValueError):
            VsaCrashes(rate=-0.1)

    def test_bad_channel_rejected(self):
        with pytest.raises(ValueError):
            MessageLoss(rate=0.1, channel="carrier-pigeon")

    def test_duplication_needs_a_copy(self):
        with pytest.raises(ValueError):
            MessageDuplication(rate=0.1, copies=0)

    def test_crash_period_positive(self):
        with pytest.raises(ValueError):
            VsaCrashes(rate=0.1, period=0.0)

    def test_negative_horizon_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan(horizon=-1.0)

    def test_non_rule_rejected(self):
        with pytest.raises(TypeError):
            FaultPlan(rules=("not a rule",))


class TestPlanValueSemantics:
    def test_plans_are_hashable_and_comparable(self):
        a = default_plan(loss_rate=0.05, crash_rate=0.01, horizon=100.0)
        b = default_plan(loss_rate=0.05, crash_rate=0.01, horizon=100.0)
        assert a == b
        assert hash(a) == hash(b)
        assert a != default_plan(loss_rate=0.06, crash_rate=0.01, horizon=100.0)

    def test_plans_pickle_roundtrip(self):
        plan = FaultPlan.of(
            MessageLoss(rate=0.1, channel=CHANNEL_BOTH),
            MessageJitter(rate=0.3, max_extra=10.0, channel=CHANNEL_BOTH),
            VsaCrashes(rate=0.02, period=50.0, downtime=100.0),
            GpsStaleness(rate=0.1, delay=20.0),
            horizon=200.0,
        )
        assert pickle.loads(pickle.dumps(plan)) == plan

    def test_blackout_regions_normalized_to_tuple(self):
        rule = RegionBlackout(at=1.0, regions=[(0, 0), (1, 1)])
        assert rule.regions == ((0, 0), (1, 1))
        assert hash(rule) is not None


class TestDefaultPlan:
    def test_all_zero_rates_is_null(self):
        assert default_plan(loss_rate=0.0, crash_rate=0.0).is_null()
        assert default_plan(loss_rate=0.0, crash_rate=0.0).rules == ()

    def test_nonzero_knobs_included_in_order(self):
        plan = default_plan(
            loss_rate=0.1, jitter_rate=0.3, crash_rate=0.4, horizon=99.0,
        )
        kinds = [type(rule).__name__ for rule in plan.rules]
        assert kinds == ["MessageLoss", "MessageJitter", "VsaCrashes"]
        assert plan.horizon == 99.0
        assert not plan.is_null()
