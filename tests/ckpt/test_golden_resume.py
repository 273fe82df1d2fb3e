"""The golden guarantee: snapshot-at-t-then-resume ≡ uninterrupted run.

Each case runs the scripted walk of :func:`repro.sim.sharded.walk_scenario`
twice — once straight through, once cut at a chosen simulation time,
snapshotted, restored (rebuilt and replayed to the cut) and resumed —
and requires :func:`repro.ckpt.run_fingerprint` equality: same C-gcast
sends (every one, in order), same clock, same event count, same
accountant totals, same find records, same final pointers.

Cut points sit on the walk's own timeline (enter at 0, a find at 20, a
move at 40, a find at ~60, ...), each in the phase it names:

* **mid-grow** — t=41.5: the t=40 move's Grow and lateral GrowNbr
  messages are in transit;
* **mid-find** — t=62: the second find's FindQuery messages are in
  transit;
* **mid-blackout** — t=90: a scheduled :class:`RegionBlackout` holds a
  region down and a 30% :class:`MessageLoss` plan is mid-stream.

Every cut point runs with observability off and on — the obs layer is
global state outside the snapshot, and neither the replay nor the
continuation may depend on it.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

import repro.obs as obs  # noqa: E402
from repro.ckpt import (  # noqa: E402
    CkptFormatError,
    restore_scenario,
    run_fingerprint,
    snapshot_scenario,
)
from repro.faults.plan import (  # noqa: E402
    CHANNEL_BOTH,
    FaultPlan,
    MessageLoss,
    RegionBlackout,
)
from repro.scenario import build  # noqa: E402
from repro.sim.sharded import walk_scenario  # noqa: E402
from repro.workload import schedule_workload  # noqa: E402

PLAIN, SCRIPT = walk_scenario(2, 2, shards=1, n_moves=5, seed=7)
BLACKOUT = PLAIN.with_(
    fault_plan=FaultPlan.of(
        MessageLoss(rate=0.3, channel=CHANNEL_BOTH),
        RegionBlackout(at=70.0, duration=40.0, count=1),
        horizon=150.0,
    )
)


def _in_transit(*kinds):
    return lambda scenario: set(kinds) <= {
        type(payload).__name__
        for _, _, payload, _ in scenario.system.cgcast.in_transit()
    }


def _blacked_out(scenario):
    return bool(scenario.injector._forced_down)


CASES = [
    pytest.param(PLAIN, 41.5, _in_transit("Grow", "GrowNbr"), id="mid-grow"),
    pytest.param(PLAIN, 62.0, _in_transit("FindQuery"), id="mid-find"),
    pytest.param(BLACKOUT, 90.0, _blacked_out, id="mid-blackout"),
]


def _walk(config, script=SCRIPT):
    scenario = build(config)
    schedule_workload(scenario.system, script)
    return scenario


def _uninterrupted(config, script=SCRIPT):
    scenario = _walk(config, script)
    scenario.sim.run()
    return run_fingerprint(scenario)


def _cut_and_resume(config, cut_at, in_phase=lambda scenario: True):
    scenario = _walk(config)
    scenario.sim.run_until(cut_at)
    assert in_phase(scenario)
    snapshot = snapshot_scenario(scenario)
    resumed = restore_scenario(snapshot)
    assert run_fingerprint(resumed) == run_fingerprint(scenario)
    assert in_phase(resumed)
    resumed.sim.run()
    return snapshot, run_fingerprint(resumed)


@pytest.mark.parametrize("config, cut_at, in_phase", CASES)
def test_resume_is_bit_identical_obs_off(config, cut_at, in_phase):
    golden = _uninterrupted(config)
    snapshot, resumed = _cut_and_resume(config, cut_at, in_phase)
    assert snapshot.meta.sim_time == cut_at
    assert resumed == golden


@pytest.mark.parametrize("config, cut_at, in_phase", CASES)
def test_resume_is_bit_identical_obs_on(config, cut_at, in_phase):
    golden = _uninterrupted(config)  # obs-off baseline
    with obs.observed() as collector:
        _, resumed = _cut_and_resume(config, cut_at, in_phase)
        seen = collector.events_seen
    assert resumed == golden
    assert seen > 0  # obs really was live


def test_restore_shows_the_collector_only_the_continuation():
    scenario = _walk(PLAIN)
    scenario.sim.run_until(62.0)
    snapshot = snapshot_scenario(scenario)
    with obs.observed() as collector:
        restore_scenario(snapshot)
        assert collector.events_seen == 0


def test_snapshot_does_not_perturb_the_original():
    """The snapshotted scenario itself must also finish identically."""
    golden = _uninterrupted(PLAIN)
    scenario = _walk(PLAIN)
    scenario.sim.run_until(25.0)
    snapshot_scenario(scenario)
    scenario.sim.run()
    assert run_fingerprint(scenario) == golden


def test_restores_are_independent_continuations():
    """N restores of one snapshot never share mutable state."""
    scenario = _walk(BLACKOUT)
    scenario.sim.run_until(90.0)
    snapshot = snapshot_scenario(scenario)
    first = restore_scenario(snapshot)
    second = restore_scenario(snapshot)
    first.sim.run()  # driving one must not advance the other
    assert second.sim.now == 90.0
    second.sim.run()
    assert run_fingerprint(first) == run_fingerprint(second)


def test_fingerprint_tells_runs_apart():
    """A default build folds its sends: seeds and fault plans show."""
    plain = _uninterrupted(PLAIN)
    assert plain[2] > 0 and plain[3] != 0  # sends, send CRC
    assert _uninterrupted(*walk_scenario(2, 2, shards=1, n_moves=5, seed=8)) != plain
    assert _uninterrupted(BLACKOUT) != plain  # armed vs unarmed


def test_finds_complete_after_resume():
    """The resumed mid-find run actually finishes its finds."""
    _, resumed_fp = _cut_and_resume(PLAIN, 62.0)
    finds = resumed_fp[5]
    assert len(finds) == 4
    assert all(find[1] is True for find in finds)  # completed


def test_a_world_driven_outside_its_scripts_is_refused_at_its_cut():
    scenario = _walk(PLAIN)
    scenario.sim.run_until(30.0)
    scenario.system.issue_find((0, 0))  # not in any script
    scenario.sim.run_until(45.0)
    snapshot = snapshot_scenario(scenario)
    with pytest.raises(CkptFormatError, match="t=45"):
        restore_scenario(snapshot)


@pytest.mark.parametrize(
    "change, field",
    [
        (dict(hierarchy=build(PLAIN).hierarchy), "ScenarioConfig.hierarchy"),
        (dict(system=type(build(PLAIN).system)), "ScenarioConfig.system"),
    ],
    ids=["hierarchy", "class-system"],
)
def test_a_config_outside_the_value_table_is_refused_at_capture(change, field):
    scenario = build(PLAIN.with_(**change))
    with pytest.raises(ValueError, match=field):
        snapshot_scenario(scenario)


LOSSY, LOSSY_SCRIPT = walk_scenario(2, 2, shards=1, n_moves=4, seed=11)
LOSSY = LOSSY.with_(
    fault_plan=FaultPlan.of(
        MessageLoss(rate=0.3, channel=CHANNEL_BOTH),
        RegionBlackout(at=30.0, duration=50.0, count=2),
    )
)


def _lossy():
    return _walk(LOSSY, LOSSY_SCRIPT)


@settings(max_examples=25, deadline=None)
@given(
    by_steps=st.booleans(),
    cut=st.floats(min_value=0.0, max_value=220.0),
    steps=st.integers(min_value=0, max_value=400),
)
def test_any_cut_replays_to_the_live_world_and_its_continuation(by_steps, cut, steps):
    """Cuts by time, or by a count of single steps — which lands inside
    an instant whenever the next event shares the clock."""
    live = _lossy()
    if by_steps:
        for _ in range(steps):
            if not live.sim.step():
                break
    else:
        live.sim.run_until(cut)
    resumed = restore_scenario(snapshot_scenario(live))
    assert run_fingerprint(resumed) == run_fingerprint(live)
    live.sim.run()
    resumed.sim.run()
    assert run_fingerprint(resumed) == run_fingerprint(live)
