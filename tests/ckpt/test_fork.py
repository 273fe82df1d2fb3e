"""Fork semantics: one snapshot → N deterministic divergent continuations.

The contract (``repro.ckpt.fork``): forking with the same index is
bit-identical every time; different indices diverge from the first
post-fork fault draw — a message draw included; and the fork only
perturbs the injector's draws — a fault-free scenario forks into an
exact resume for every index.
"""

from repro.ckpt import (
    build_tracked_walk,
    fork_scenario,
    run_fingerprint,
    snapshot_scenario,
    walk_horizon,
)
from repro.faults.plan import CHANNEL_BOTH, FaultPlan, MessageLoss
from repro.scenario import ScenarioConfig

HORIZON = walk_horizon(5)

LOSSY = ScenarioConfig(r=2, max_level=2, seed=7).with_(
    fault_plan=FaultPlan.of(MessageLoss(rate=0.3, channel=CHANNEL_BOTH))
)


def _snapshot_at(config, t):
    scenario = build_tracked_walk(config)
    scenario.sim.run_until(t)
    return snapshot_scenario(scenario)


def _run_fork(snapshot, index):
    forked = fork_scenario(snapshot, index)
    forked.sim.run_until(HORIZON)
    return run_fingerprint(forked)


def test_same_index_is_bit_identical():
    snapshot = _snapshot_at(LOSSY, 25.0)
    assert _run_fork(snapshot, 3) == _run_fork(snapshot, 3)


def test_different_indices_diverge():
    snapshot = _snapshot_at(LOSSY, 25.0)
    fingerprints = {0: _run_fork(snapshot, 0), 1: _run_fork(snapshot, 1),
                    2: _run_fork(snapshot, 2)}
    assert len(set(fingerprints.values())) == 3


def test_fork_marks_the_injector_registry():
    snapshot = _snapshot_at(LOSSY, 25.0)
    forked = fork_scenario(snapshot, 4)
    assert forked.injector.streams.fork_path == (4,)


def test_fork_without_registries_is_an_exact_resume():
    """No fault plan → no injector → every fork index resumes
    identically (fork divergence is scoped to the injector's draws)."""
    plain = ScenarioConfig(r=2, max_level=2, seed=7)
    golden = build_tracked_walk(plain)
    golden.sim.run_until(HORIZON)
    snapshot = _snapshot_at(plain, 25.0)
    assert _run_fork(snapshot, 0) == run_fingerprint(golden)
    assert _run_fork(snapshot, 9) == run_fingerprint(golden)

