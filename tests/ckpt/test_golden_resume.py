"""The golden guarantee: snapshot-at-t-then-resume ≡ uninterrupted run.

Each case runs the canonical tracked walk twice — once straight through,
once cut at a chosen simulation time, snapshotted, restored and resumed
— and requires :func:`repro.ckpt.run_fingerprint` equality: same
C-gcast sends (every one, in order), same clock, same event count, same
accountant totals, same find records, same final pointers.  The walk is
a default :func:`~repro.scenario.build`: nothing is switched on for it.

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

import random

import pytest

import repro.obs as obs
from repro.ckpt import (
    build_tracked_walk,
    restore_scenario,
    run_fingerprint,
    snapshot_scenario,
    walk_horizon,
)
from repro.faults.plan import (
    CHANNEL_BOTH,
    FaultPlan,
    MessageLoss,
    RegionBlackout,
    VsaCrashes,
)
from repro.mobility import RandomNeighborWalk
from repro.scenario import ScenarioConfig, build

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
    return run_fingerprint(scenario)


def _cut_and_resume(config, cut_at):
    scenario = build_tracked_walk(config)
    scenario.sim.run_until(cut_at)
    # The loop is idle: no send record awaits its observers, so the
    # capture holds none (and needs no special case for them).
    assert scenario.system.cgcast.messages_sent > 0
    assert scenario.system.cgcast._pending == []
    snapshot = snapshot_scenario(scenario)
    resumed = restore_scenario(snapshot)
    assert resumed.system.cgcast._pending == []
    resumed.sim.run_until(HORIZON)
    return snapshot, run_fingerprint(resumed)


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
    assert run_fingerprint(scenario) == golden


def test_restores_are_independent_continuations():
    """N restores of one snapshot never share mutable state."""
    scenario = build_tracked_walk(BLACKOUT)
    scenario.sim.run_until(30.0)
    snapshot = snapshot_scenario(scenario)
    first = restore_scenario(snapshot)
    second = restore_scenario(snapshot)
    first.sim.run_until(HORIZON)  # driving one must not advance the other
    assert second.sim.now == 30.0
    second.sim.run_until(HORIZON)
    assert run_fingerprint(first) == run_fingerprint(second)


def test_fingerprint_tells_runs_apart():
    """A default build folds its sends: seeds and fault plans show."""
    plain = _uninterrupted(PLAIN)
    assert plain[2] > 0 and plain[3] != 0  # sends, send CRC
    assert _uninterrupted(PLAIN.with_(seed=8)) != plain
    assert _uninterrupted(BLACKOUT) != plain  # armed vs unarmed


#: Where seed 7's second move (t=20) takes the evader.
MOVE_2_DEST = (1, 2)


def _at_move_2(rule):
    return PLAIN.with_(fault_plan=FaultPlan.of(rule, horizon=60.0))


def _queued_in_full(config):
    """The walk with every move queued after ``build()``: its fingerprint
    and where each move took the evader."""
    queued = build(config)
    system = queued.system
    regions = system.hierarchy.tiling.regions()
    center = regions[len(regions) // 2]
    evader = system.make_evader(
        RandomNeighborWalk(start=center), dwell=1e12, start=center,
        rng=random.Random(config.seed),
    )
    path = []

    def move():
        path.append((system.sim.now, evader.step()))

    for k in range(1, 6):
        system.sim.call_at(10.0 * k, move, tag="walk-move")
    system.sim.call_at(55.0, lambda: system.issue_find(regions[0]), tag="walk-find")
    queued.sim.run_until(HORIZON)
    return run_fingerprint(queued), path


@pytest.mark.parametrize(
    "config",
    [
        PLAIN,
        BLACKOUT,
        _at_move_2(RegionBlackout(at=20.0, duration=20.0, regions=(MOVE_2_DEST,))),
        _at_move_2(VsaCrashes(rate=1.0, period=100.0, downtime=20.0, start=20.0)),
    ],
    ids=["plain", "blackout", "blackout-of-destination", "crash-of-every-vsa"],
)
def test_chained_walk_runs_as_a_walk_queued_in_full(config):
    """The walk's moves form a chain on the queue (one pending event).
    Queued all at build time instead, a move follows a fault queued by
    ``build()`` for its instant; where the two commute — here the fault
    takes the move's destination down — both runs are the same run."""
    queued, path = _queued_in_full(config)
    assert path[1] == (20.0, MOVE_2_DEST)
    assert queued == _uninterrupted(config)


def test_chained_walk_departs_when_a_fault_lifts_as_a_move_lands():
    """A fault lifting δ after the move, as the client's message reaches
    its VSA: the restore and that delivery swap with the move and the
    fault, so the two schedules run different runs."""
    config = _at_move_2(
        RegionBlackout(at=20.0, duration=PLAIN.delta, regions=(MOVE_2_DEST,))
    )
    queued, _ = _queued_in_full(config)
    assert queued != _uninterrupted(config)


def test_finds_complete_after_resume():
    """The resumed mid-find run actually finishes its find."""
    _, resumed_fp = _cut_and_resume(PLAIN, 55.5)
    finds = resumed_fp[5]
    assert len(finds) == 1
    assert finds[0][1] is True  # completed
