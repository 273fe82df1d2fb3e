"""Property-based round trips through the checkpoint's value table.

A checkpoint holds a world's :class:`~repro.scenario.ScenarioConfig` and
its scripts as JSON (``repro.workload.encode_inputs``), so any config the
table can express — every fault rule kind, energy, stabilization,
service knobs — and any valid script must decode equal to what was
encoded, tuples back as tuples.
"""

import json

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.energy.model import EnergyModel  # noqa: E402
from repro.faults.plan import (  # noqa: E402
    FaultPlan,
    GpsStaleness,
    LagSpike,
    MessageDuplication,
    MessageJitter,
    MessageLoss,
    RegionBlackout,
    VsaCrashes,
)
from repro.scenario import MESSAGE_SYSTEMS, ScenarioConfig  # noqa: E402
from repro.workload import (  # noqa: E402
    EvaderEnter,
    EvaderStep,
    IssueFind,
    ScriptedWorkload,
    _decode,
    _encode,
)
from repro.stabilization import StabilizationConfig  # noqa: E402

times = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)
rates = st.floats(min_value=0.0, max_value=1.0)
channels = st.sampled_from(["cgcast", "vbcast", "both"])
regions = st.tuples(st.integers(0, 8), st.integers(0, 8))

rules = st.one_of(
    st.builds(MessageLoss, rate=rates, channel=channels),
    st.builds(MessageDuplication, rate=rates, channel=channels,
              copies=st.integers(1, 4)),
    st.builds(MessageJitter, rate=rates, channel=channels, max_extra=times),
    st.builds(LagSpike, at=times, duration=times, extra_e=times),
    st.builds(VsaCrashes, rate=rates, period=st.floats(0.1, 1e3),
              downtime=times, start=times),
    st.builds(RegionBlackout, at=times, duration=times,
              regions=st.lists(regions, max_size=3).map(tuple),
              count=st.integers(0, 3)),
    st.builds(GpsStaleness, rate=rates, delay=times),
)

configs = st.builds(
    ScenarioConfig,
    r=st.integers(2, 4),
    max_level=st.integers(1, 3),
    seed=st.integers(-(2 ** 40), 2 ** 40),
    system=st.sampled_from(MESSAGE_SYSTEMS),
    fault_plan=st.none() | st.builds(
        FaultPlan, rules=st.lists(rules, max_size=4).map(tuple),
        horizon=st.none() | times,
    ),
    energy=st.none() | st.builds(
        EnergyModel, tx_cost=times, rx_cost=times, idle_cost=times,
        sense_cost=times, budget=st.none() | st.floats(0.5, 1e6),
    ),
    stabilization=st.none() | st.builds(
        StabilizationConfig, period_base=times, scale=times,
        miss_limit=st.integers(1, 5), refresh_periods=st.integers(1, 5),
    ),
    n_objects=st.integers(1, 10_000),
    find_clients=st.integers(1, 64),
)

actions = st.one_of(
    st.builds(EvaderEnter, time=times, region=regions,
              object_id=st.integers(0, 100)),
    st.builds(EvaderStep, time=times, target=regions,
              object_id=st.integers(0, 100)),
    st.builds(IssueFind, time=times, origin=regions,
              find_id=st.integers(1, 10_000), object_id=st.integers(0, 100),
              deadline=st.none() | times),
)


def _valid(drawn):
    """The drawn actions made a valid script: time-sorted, an object's
    steps after its one enter."""
    entered, kept = set(), []
    for action in sorted(drawn, key=lambda a: a.time):
        if isinstance(action, EvaderEnter):
            if action.object_id in entered:
                continue
            entered.add(action.object_id)
        elif isinstance(action, EvaderStep) and action.object_id not in entered:
            continue
        kept.append(action)
    return tuple(kept)


scripts = st.builds(
    ScriptedWorkload, actions=st.lists(actions, max_size=20).map(_valid),
    horizon=times,
)


def _round_trip(value):
    """The path every checkpoint takes: encode, JSON text, decode."""
    return _decode(json.loads(json.dumps(_encode(value))))


@settings(max_examples=200, deadline=None)
@given(config=configs, script=scripts)
def test_a_config_and_its_script_decode_equal(config, script):
    assert _round_trip(config) == config
    assert _round_trip(script) == script
    assert _round_trip((config, script)) == (config, script)
