"""Tests for the unified ScenarioConfig / build() factory."""

import pickle

import pytest

from repro.core.vinestalk import VineStalk
from repro.faults import default_plan
from repro.mobility import FixedPath
from repro.analysis.crossbase import ANALYTIC_TRACKERS
from repro.scenario import (
    MESSAGE_SYSTEMS,
    Scenario,
    ScenarioConfig,
    build,
)


class TestConfigValueSemantics:
    def test_frozen(self):
        config = ScenarioConfig()
        with pytest.raises(Exception):
            config.r = 5

    def test_with_returns_modified_copy(self):
        config = ScenarioConfig(r=2, max_level=3)
        other = config.with_(seed=9)
        assert other.seed == 9
        assert other.r == 2
        assert config.seed == 0  # original untouched

    def test_picklable(self):
        config = ScenarioConfig(
            r=2, max_level=3, system="stabilizing",
            fault_plan=default_plan(loss_rate=0.1, horizon=50.0),
        )
        assert pickle.loads(pickle.dumps(config)) == config

    def test_unknown_system_key_rejected(self):
        with pytest.raises(ValueError):
            ScenarioConfig(system="carrier-pigeon")

    def test_system_must_be_key_or_class(self):
        with pytest.raises(TypeError):
            ScenarioConfig(system=42)

    def test_fault_plan_type_checked(self):
        with pytest.raises(TypeError):
            ScenarioConfig(fault_plan="lossy")

    def test_analytic_keys_are_refused(self):
        # Analytic cost models are not worlds: no config names them.
        for key in ANALYTIC_TRACKERS:
            for spelling in (key, key.replace("-", "_")):
                with pytest.raises(ValueError, match="unknown system"):
                    ScenarioConfig(system=spelling)


class TestBuild:
    def test_default_build_shape(self):
        scenario = build(ScenarioConfig(r=2, max_level=2))
        assert isinstance(scenario, Scenario)
        assert isinstance(scenario.system, VineStalk)
        assert scenario.hierarchy is scenario.system.hierarchy
        assert scenario.accountant is not None
        assert scenario.injector is None
        assert scenario.sim is scenario.system.sim
        assert scenario.fault_stats is None

    def test_parts_matches_legacy_shape(self):
        scenario = build(ScenarioConfig(r=2, max_level=2))
        system, accountant = scenario.parts()
        assert system is scenario.system
        assert accountant is scenario.accountant

    def test_every_message_system_builds(self):
        for key in MESSAGE_SYSTEMS:
            scenario = build(ScenarioConfig(r=2, max_level=2, system=key))
            assert scenario.sim is not None
            assert scenario.accountant is not None
            assert scenario.send_fold is not None

    def test_registry_passes_each_systems_config_fields(self):
        from repro.stabilization.stabilizing_tracker import StabilizationConfig

        stabilization = StabilizationConfig()
        base = ScenarioConfig(r=2, max_level=2)
        replicated = build(base.with_(system="replicated", replication_factor=3))
        assert replicated.system.replication_factor == 3
        emulated = build(base.with_(system="emulated", physical_routing=True))
        assert emulated.system.physical_routing is True
        stabilizing = build(
            base.with_(system="stabilizing", stabilization=stabilization)
        )
        assert stabilizing.system.stabilization is stabilization

    def test_class_system_builds(self):
        scenario = build(ScenarioConfig(r=2, max_level=2, system=VineStalk))
        assert isinstance(scenario.system, VineStalk)
        assert scenario.system.delta == 1.0

    def test_explicit_hierarchy_overrides_grid_params(self):
        donor = build(ScenarioConfig(r=2, max_level=3))
        scenario = build(ScenarioConfig(r=9, max_level=9,
                                        hierarchy=donor.hierarchy))
        assert scenario.hierarchy is donor.hierarchy

    def test_fault_plan_arms_injector(self):
        plan = default_plan(loss_rate=0.2, horizon=100.0)
        scenario = build(ScenarioConfig(r=2, max_level=2, fault_plan=plan))
        assert scenario.injector is not None
        assert scenario.fault_stats is scenario.injector.stats
        assert sum(scenario.fault_stats.as_dict().values()) == 0  # nothing ran yet

    def test_same_config_builds_identical_runs(self):
        config = ScenarioConfig(
            r=2, max_level=2, seed=3,
            fault_plan=default_plan(loss_rate=0.3, horizon=40.0),
        )
        counts = []
        for _ in range(2):
            scenario = build(config)
            scenario.system.make_evader(
                FixedPath([(0, 0), (1, 0), (1, 1)]), dwell=1e12, start=(0, 0)
            )
            for t in (5.0, 15.0):
                scenario.system.sim.call_at(
                    t, scenario.system.evader.step, tag="t"
                )
            scenario.system.sim.run_until(40.0)
            counts.append(
                (scenario.sim.events_fired, scenario.fault_stats.as_dict())
            )
        assert counts[0] == counts[1]
