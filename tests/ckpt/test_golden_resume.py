"""The golden guarantee: snapshot-at-t-then-resume ≡ uninterrupted run.

Each case runs the canonical tracked walk twice — once straight through,
once cut at a chosen simulation time, snapshotted, restored and resumed
— and requires :func:`repro.ckpt.trace_fingerprint` equality: same
trace (every record), same clock, same event count, same evader
position, same accountant totals, same find records.

Cut points cover the three phases where in-flight state is richest:

* **mid-grow** — a walk move just fired; Grow/Shrink geocasts and
  tracker updates are in flight;
* **mid-find** — the t=55 find is propagating query/reply messages;
* **mid-blackout** — a scheduled :class:`RegionBlackout` has VSAs down
  and a 30% :class:`MessageLoss` plan is mid-stream (RNG positions and
  injector arming must round-trip exactly).

Every cut point runs with observability off and on — the obs layer
is global state outside the snapshot, and resuming under it must not
perturb the simulation.
"""

import pytest

import repro.obs as obs
from repro.ckpt import (
    build_tracked_walk,
    restore_scenario,
    snapshot_scenario,
    trace_fingerprint,
    walk_horizon,
)
from repro.faults.plan import (
    CHANNEL_BOTH,
    FaultPlan,
    MessageLoss,
    RegionBlackout,
)
from repro.scenario import ScenarioConfig

HORIZON = walk_horizon(5)  # t=70: every scheduled move + find has settled

PLAIN = ScenarioConfig(r=2, max_level=2, seed=7)
BLACKOUT = PLAIN.with_(
    fault_plan=FaultPlan.of(
        MessageLoss(rate=0.3, channel=CHANNEL_BOTH),
        RegionBlackout(at=20.0, duration=20.0, count=1),
        horizon=60.0,
    )
)

CASES = [
    pytest.param(PLAIN, 10.5, id="mid-grow"),
    pytest.param(PLAIN, 55.5, id="mid-find"),
    pytest.param(BLACKOUT, 30.0, id="mid-blackout"),
]


def _uninterrupted(config):
    scenario = build_tracked_walk(config)
    scenario.sim.run_until(HORIZON)
    return trace_fingerprint(scenario)


def _cut_and_resume(config, cut_at):
    scenario = build_tracked_walk(config)
    scenario.sim.run_until(cut_at)
    # The loop is idle: no send record awaits its observers, so the
    # capture holds none (and needs no special case for them).
    assert scenario.system.cgcast.messages_sent > 0
    assert scenario.system.cgcast._pending == []
    snapshot = snapshot_scenario(scenario)
    resumed = restore_scenario(snapshot).scenario
    assert resumed.system.cgcast._pending == []
    resumed.sim.run_until(HORIZON)
    return snapshot, trace_fingerprint(resumed)


@pytest.mark.parametrize("config, cut_at", CASES)
def test_resume_is_bit_identical_obs_off(config, cut_at):
    golden = _uninterrupted(config)
    snapshot, resumed = _cut_and_resume(config, cut_at)
    assert snapshot.meta.sim_time == cut_at
    assert resumed == golden


@pytest.mark.parametrize("config, cut_at", CASES)
def test_resume_is_bit_identical_obs_on(config, cut_at):
    golden = _uninterrupted(config)  # obs-off baseline
    with obs.observed() as collector:
        snapshot, resumed = _cut_and_resume(config, cut_at)
    assert resumed == golden
    assert collector.events_seen > 0  # obs really was live


def test_snapshot_does_not_perturb_the_original():
    """The snapshotted scenario itself must also finish identically."""
    golden = _uninterrupted(PLAIN)
    scenario = build_tracked_walk(PLAIN)
    scenario.sim.run_until(25.0)
    snapshot_scenario(scenario)
    scenario.sim.run_until(HORIZON)
    assert trace_fingerprint(scenario) == golden


def test_restores_are_independent_continuations():
    """N restores of one snapshot never share mutable state."""
    scenario = build_tracked_walk(BLACKOUT)
    scenario.sim.run_until(30.0)
    snapshot = snapshot_scenario(scenario)
    first = restore_scenario(snapshot).scenario
    second = restore_scenario(snapshot).scenario
    first.sim.run_until(HORIZON)  # driving one must not advance the other
    assert second.sim.now == 30.0
    second.sim.run_until(HORIZON)
    assert trace_fingerprint(first) == trace_fingerprint(second)


def test_finds_complete_after_resume():
    """The resumed mid-find run actually finishes its find."""
    _, resumed_fp = _cut_and_resume(PLAIN, 55.5)
    finds = resumed_fp[-1]
    assert len(finds) == 1
    assert finds[0][1] is True  # completed
