"""The process backend must be semantically invisible.

Shard replicas are pure functions of ``(config, plan, shard_id,
workload)`` and the exchange order is canonical, so running shards in
forked workers instead of in-process must change nothing but wall
time: same canonical fingerprint, same totals, regardless of worker
scheduling.
"""

import pytest

from repro.sim.sharded import ShardedRunError, run_script, walk_scenario

WALK = dict(r=2, max_level=3, n_moves=8, n_finds=4, seed=11)


def test_process_backend_matches_serial_backend():
    serial = run_script(*walk_scenario(shards=2, **WALK), "serial")
    procs = run_script(*walk_scenario(shards=2, **WALK), "processes")
    assert procs.backend == "processes"
    assert procs.canonical_fingerprint == serial.canonical_fingerprint
    assert procs.events == serial.events
    assert procs.messages_sent == serial.messages_sent
    assert procs.windows == serial.windows
    assert procs.cross_shard_messages == serial.cross_shard_messages
    assert procs.finds_completed == serial.finds_completed


def test_process_backend_fault_armed():
    kwargs = dict(WALK, loss_rate=0.1, jitter_rate=0.3)
    serial = run_script(*walk_scenario(shards=2, **kwargs), "serial")
    procs = run_script(*walk_scenario(shards=2, **kwargs), "processes")
    assert procs.canonical_fingerprint == serial.canonical_fingerprint
    assert procs.fault_events == serial.fault_events


def test_single_shard_never_forks():
    result = run_script(*walk_scenario(shards=1, **WALK), "processes")
    assert result.backend == "serial"


def test_unknown_backend_rejected():
    with pytest.raises(ValueError):
        run_script(*walk_scenario(shards=2, **WALK), "threads")


def test_worker_failure_surfaces_as_sharded_run_error(monkeypatch):
    # Sabotage the worker entry point: the parent must raise a
    # ShardedRunError (not hang on a dead pipe) and reap the workers.
    from repro.scenario import ScenarioConfig
    from repro.sim.sharded import ShardedSimulator, make_walk_workload
    from repro.sim.sharded.core import _tiling_for

    config = ScenarioConfig(r=2, max_level=3, seed=11, shards=2)
    workload = make_walk_workload(_tiling_for(config), 4, 2, 11)
    sim = ShardedSimulator(config, workload, backend="processes")
    monkeypatch.setattr(
        "repro.sim.sharded.worker.ShardContext",
        None,  # workers crash on first use
    )
    with pytest.raises(ShardedRunError):
        sim.run()


def test_a_worker_killed_between_windows_surfaces_as_sharded_run_error():
    # SIGKILL shard 0's worker after the first window: the next step's
    # send to it hits a broken pipe, which must arrive as a
    # ShardedRunError naming the shard, promptly, with every worker reaped.
    import os
    import signal
    import time

    from repro.sim.sharded import ShardedSimulator

    sim = ShardedSimulator(*walk_scenario(shards=2, **WALK), backend="processes")
    transports = []
    make = sim._make_transport

    def make_transport():
        transport = make()
        transports.append(transport)
        step_all = transport.step_all

        def step_then_kill(barrier, inboxes):
            replies = step_all(barrier, inboxes)
            victim = transport.procs[0]
            if victim.is_alive():
                os.kill(victim.pid, signal.SIGKILL)
                victim.join(timeout=10.0)
            return replies

        transport.step_all = step_then_kill
        return transport

    sim._make_transport = make_transport
    start = time.monotonic()
    with pytest.raises(ShardedRunError, match="shard 0"):
        sim.run()
    assert time.monotonic() - start < 30.0
    (transport,) = transports
    assert not any(proc.is_alive() for proc in transport.procs)
