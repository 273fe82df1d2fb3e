"""Lazy automata: a world builds a Tracker or a client on its first use.

``VineStalk.trackers`` and ``VineStalk.clients`` are total mappings
whose automata are built on first read, so a run builds only the
clusters and regions it touches.  The oracle is the same world with
every automaton forced before the run (:class:`Forced`, the eager
construction): run records, run fingerprints, snapshots and
conformance verdicts must all be equal, on the plain loop and on the
serial K=2 engine, under a fault plan that takes regions down before
any of their automata exist.
"""

import gc
from dataclasses import asdict

import pytest

from repro.ckpt import restore_scenario, run_fingerprint, snapshot_scenario
from repro.core import VineStalk, capture_snapshot
from repro.core.client_tracking import TrackingClient
from repro.core.tracker import Tracker
from repro.faults.plan import CHANNEL_BOTH, FaultPlan, MessageLoss, RegionBlackout
from repro.hierarchy.cluster import ClusterId
from repro.obs.conformance import ConformanceSampler
from repro.scenario import ScenarioConfig, build
from repro.sim.sharded import make_walk_workload, run_script
from repro.sim.sharded.core import SerialTransport, _tiling_for
from repro.workload import schedule_workload


class Forced(VineStalk):
    """The oracle: every Tracker and client built up front."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        for clust in self.trackers:
            self.trackers[clust]
        for region in self.clients:
            self.clients[region]


#: The walk starts at (4, 0); its neighbors' VSAs are down from t=0,
#: before any automaton of theirs exists, and restart at t=25.
PLAN = FaultPlan.of(
    RegionBlackout(at=0.0, duration=25.0, regions=((3, 0), (4, 1), (5, 1))),
    MessageLoss(rate=0.05, channel=CHANNEL_BOTH),
)
LAZY = ScenarioConfig(r=2, max_level=3, seed=11, fault_plan=PLAN)
FORCED = LAZY.with_(system=Forced)
SCRIPT = make_walk_workload(_tiling_for(LAZY), 8, 4, 11)
HOST_CLOCKS = {"wall_s", "busy_s", "barrier_wait_s", "shard_busy_s", "critical_path_s"}


def _record(config, backend):
    fields = asdict(run_script(config, SCRIPT, backend))
    return {k: v for k, v in fields.items() if k not in HOST_CLOCKS}


def _view(system):
    snapshot = capture_snapshot(system)
    return snapshot.pointer_map(), snapshot.in_transit


def _scripted(config):
    scenario = build(config)
    schedule_workload(scenario.system, SCRIPT)
    return scenario


def test_a_fresh_world_has_built_nothing():
    system = build(LAZY).system
    assert not system.trackers.built and not system.clients.built
    assert len(system.trackers) == 64 + 16 + 4 + 1
    assert list(system.clients) == system.hierarchy.tiling.regions()
    assert list(system.trackers) == system.hierarchy.all_clusters()


def test_automata_built_under_a_down_vsa_start_failed():
    scenario = _scripted(LAZY)
    scenario.sim.run_until(2.0)
    trackers = scenario.system.trackers.built
    late = [trackers[c] for c in trackers if scenario.hierarchy.head(c) == (4, 1)]
    assert late and all(t.failed for t in late)


@pytest.mark.parametrize("backend", ["plain", "serial"])
def test_lazy_run_record_equals_forced(backend):
    shards = 2 if backend == "serial" else 1
    lazy = _record(LAZY.with_(shards=shards), backend)
    forced = _record(FORCED.with_(shards=shards), backend)
    assert lazy == forced
    assert lazy["finds"] and lazy["fault_events"]["blackouts"] == 3


def test_fingerprint_and_snapshot_equal_forced_at_every_cut():
    lazy, forced = _scripted(LAZY), _scripted(FORCED)
    for cut in (0.5, 1.0, 1.5, 2.5, 26.0, 41.0, 100.0, 250.0, float("inf")):
        lazy.sim.run_until(cut)
        forced.sim.run_until(cut)
        assert run_fingerprint(lazy) == run_fingerprint(forced)
        assert _view(lazy.system) == _view(forced.system)
    assert len(lazy.system.trackers.built) < len(forced.system.trackers.built)


@pytest.mark.parametrize("cut", [1.5, 26.0, 60.0])
def test_lazy_snapshot_resumes_to_the_forced_run(cut):
    straight = _scripted(FORCED)
    straight.sim.run()
    scenario = _scripted(LAZY)
    scenario.sim.run_until(cut)
    resumed = restore_scenario(snapshot_scenario(scenario))
    assert run_fingerprint(resumed) == run_fingerprint(scenario)
    resumed.sim.run()
    assert run_fingerprint(resumed) == run_fingerprint(straight)
    assert _view(resumed.system) == _view(straight.system)


def test_conformance_verdicts_equal_forced_plain():
    def summary(config):
        scenario = _scripted(config)
        scenario.sim.run_until(0.0)  # the evader has entered
        sampler = ConformanceSampler(scenario.system, stride=1).attach()
        scenario.sim.run()
        return sampler.detach().summary()

    lazy = summary(LAZY)
    assert lazy == summary(FORCED)
    assert lazy["checks_run"]["theorem-4.8"] > 100


def test_shard_views_and_verdicts_equal_forced_serial_k2(monkeypatch):
    """Per shard replica of a K=2 run: snapshot and sampler verdicts."""
    views = []
    start, finish = SerialTransport.start, SerialTransport.finish

    def attach(transport):
        transport.samplers = [
            ConformanceSampler(ctx.system, stride=1).attach()
            for ctx in transport.contexts
        ]
        return start(transport)

    def detach(transport):
        for ctx, sampler in zip(transport.contexts, transport.samplers):
            views.append((_view(ctx.system), sampler.detach().summary()))
        return finish(transport)

    monkeypatch.setattr(SerialTransport, "start", attach)
    monkeypatch.setattr(SerialTransport, "finish", detach)

    def shard_views(config):
        views.clear()
        run_script(config.with_(shards=2), SCRIPT, "serial")
        return list(views)

    lazy = shard_views(LAZY)
    assert len(lazy) == 2
    assert lazy == shard_views(FORCED)


def test_a_lazy_table_never_builds_a_phantom():
    system = build(LAZY).system
    for phantom in (ClusterId(1, (49, 49)), ClusterId(0, (-1, 0)), ClusterId(4, (0, 0))):
        assert phantom not in system.trackers
        with pytest.raises(KeyError):
            system.trackers[phantom]
    for region in ((99, 99), (-1, 0), (8, 0)):
        assert region not in system.clients
        with pytest.raises(KeyError):
            system.clients[region]
    assert not system.trackers.built and not system.clients.built


def _automata():
    gc.collect()
    return sum(isinstance(obj, (Tracker, TrackingClient)) for obj in gc.get_objects())


def test_a_walk_builds_only_what_it_touches():
    before = _automata()
    scenario = build(ScenarioConfig(r=2, max_level=7))
    assert _automata() == before
    system = scenario.system
    schedule_workload(system, make_walk_workload(scenario.hierarchy.tiling, 10, 1, 5))
    scenario.sim.run()
    assert system.finds.records[1].completed
    assert (len(system.trackers.built), len(system.clients.built)) == (101, 12)
    assert _automata() == before + 101 + 12
    assert (len(system.trackers), len(system.clients)) == (21845, 16384)
