"""One run entry, one record: :func:`repro.sim.sharded.core.run_script`.

Every way of running a frozen script — the plain loop, the serial
sharded driver at K=1 and K=2, forked shard workers at K=2 — ends in
the one ``_merge`` and returns the one :class:`RunRecord`.  The records
must agree on every *simulated* field; only the host clocks and the
fields that describe the engine itself may differ.  The pinned literals
of ``test_sharded_golden.py`` / ``test_service.py`` check the same path
against values; this file checks its four routes against each other.

Also here: the entry's typed refusal of a system that cannot quiesce.
"""

import time
from dataclasses import asdict

import pytest

from repro.scenario import ScenarioConfig
from repro.service import LoadGenerator, TrackingService
from repro.sim.sharded import (
    RunRecord,
    ShardedRunError,
    make_walk_workload,
    run_script,
)
from repro.sim.sharded.core import _tiling_for
from repro.workload import materialize

#: Host clocks, and what names the engine rather than the run.  ``now``
#: is the engine's clock: the plain loop stops at its last event, a
#: windowed run at its last barrier, up to δ later (checked below).
ENGINE_FIELDS = {
    "wall_s", "busy_s", "barrier_wait_s", "shard_busy_s", "critical_path_s", "now",
    "backend", "shards", "windows", "cross_shard_messages",
}

CONFIG = ScenarioConfig(r=2, max_level=3, seed=11, n_objects=3, find_clients=3)


def walk_script():
    return make_walk_workload(_tiling_for(CONFIG), 8, 4, CONFIG.seed)


def load_script():
    load = LoadGenerator(
        tiling=_tiling_for(CONFIG), n_objects=3, n_finds=10, find_clients=3,
        moves_per_object=2, deadline=60.0,
    )
    return materialize(load, CONFIG.seed)


def simulated(record: RunRecord, k: int) -> dict:
    fields = asdict(record)
    for name in ENGINE_FIELDS:
        del fields[name]
    if k > 1:
        # Dispatch order is only defined for a single world, and K > 1
        # also counts replicated evader actions and cross-shard
        # injections as events (``benchmarks/perf`` ENGINE_DEPENDENT).
        assert fields.pop("exact_fingerprint") is None
        del fields["events"]
    return fields


@pytest.mark.parametrize("make_script", [walk_script, load_script])
def test_all_engines_return_the_same_record(make_script):
    script = make_script()
    plain = run_script(CONFIG, script, "plain")
    serial_1 = run_script(CONFIG, script, "serial")
    serial_2 = run_script(CONFIG.with_(shards=2), script, "serial")
    forked_2 = run_script(CONFIG.with_(shards=2), script, "processes")

    assert plain.exact_fingerprint is not None
    assert simulated(serial_1, 1) == simulated(plain, 1)
    assert simulated(serial_2, 2) == simulated(forked_2, 2)
    wide = simulated(plain, 1)
    del wide["exact_fingerprint"], wide["events"]
    assert simulated(serial_2, 2) == wide
    assert serial_2.events == forked_2.events > plain.events
    assert plain.finds_issued == len(plain.finds) > 0
    assert any(f["deadline_missed"] is not None for f in plain.finds.values())

    assert (plain.backend, plain.shards) == ("plain", 1)
    assert plain.windows == 0 and plain.barrier_wait_s == 0.0
    assert plain.cross_shard_messages == 0
    assert (forked_2.backend, forked_2.shards) == ("processes", 2)
    assert serial_2.windows == forked_2.windows > 0
    assert serial_1.now == serial_2.now == forked_2.now
    assert plain.now < serial_2.now <= plain.now + CONFIG.delta
    assert serial_2.cross_shard_messages == forked_2.cross_shard_messages > 0


def test_plain_ignores_config_shards():
    script = walk_script()
    record = run_script(CONFIG.with_(shards=4), script, "plain")
    assert record.shards == 1
    assert simulated(record, 1) == simulated(run_script(CONFIG, script, "plain"), 1)


def test_service_attaches_metrics_to_the_record():
    script = load_script()
    bare = run_script(CONFIG, script, "plain")
    served = TrackingService(CONFIG, engine="plain").run(script)
    assert isinstance(served, RunRecord)
    assert bare.metrics == {} and served.metrics["finds_issued"] == 10
    assert simulated(served, 1) == {**simulated(bare, 1), "metrics": served.metrics}
    assert served.work == {
        "move": served.move_work, "find": served.find_work,
        "other": served.other_work, "total": served.total_cost,
    }


class TestUnquiescentSystemRefused:
    """``stabilizing`` re-arms heartbeat timers forever: a run "until the
    queue drains" would never return, so it is refused up front."""

    @pytest.mark.parametrize("engine", ["plain", "sharded"])
    def test_service_raises_before_any_event(self, engine):
        config = ScenarioConfig(r=2, max_level=2, seed=7, shards=2,
                                system="stabilizing")
        load = LoadGenerator(tiling=_tiling_for(config), n_objects=2, n_finds=4)
        start = time.perf_counter()
        with pytest.raises(ValueError, match="until the queue drains") as info:
            TrackingService(config, engine=engine).run(load)
        assert time.perf_counter() - start < 1.0
        assert "stabilizing" in str(info.value)

    def test_forked_workers_surface_the_refusal(self):
        config = CONFIG.with_(shards=2, system="stabilizing")
        with pytest.raises(ShardedRunError, match="until the queue drains"):
            run_script(config, walk_script(), "processes")

    @pytest.mark.parametrize(
        "system", ["vinestalk", "no-lateral", "predictive", "replicated", "emulated"]
    )
    def test_quiescing_systems_still_run(self, system):
        config = ScenarioConfig(r=2, max_level=2, seed=7, system=system)
        load = LoadGenerator(tiling=_tiling_for(config), n_objects=2, n_finds=4)
        record = TrackingService(config, engine="plain").run(load)
        assert record.finds_issued == 4 and record.events > 0
