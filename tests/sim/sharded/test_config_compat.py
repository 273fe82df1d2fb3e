"""ScenarioConfig pickle round-trip and validation of the sharding fields."""

import pickle

from repro.scenario import ScenarioConfig


def test_roundtrip_preserves_new_fields():
    config = ScenarioConfig(r=2, max_level=3, shards=4)
    clone = pickle.loads(pickle.dumps(config))
    assert clone == config
    assert clone.shards == 4
    assert clone.stable_fault_draws is True


def test_message_fault_draws_are_only_keyed():
    import pytest

    assert ScenarioConfig(stable_fault_draws=True) == ScenarioConfig()
    with pytest.raises(ValueError, match="stable_fault_draws"):
        ScenarioConfig(stable_fault_draws=False)


def test_shards_validated():
    import pytest

    with pytest.raises(ValueError):
        ScenarioConfig(r=2, max_level=2, shards=0)
