"""Lazy world: a grid world costs what its run touches.

``GridTiling`` and ``GridHierarchy`` are closed forms that intern only
what a run asks for, and ``VsaNetwork.hosts`` builds a VSA host on its
first read (a host never read is alive and hosts nothing).  The oracle
is the same world with every host forced before the run
(:class:`ForcedHosts`, the eager construction): run records and run
fingerprints must be equal under a fault plan whose blackout hits
regions the run never touches and whose crashes draw over every region.
"""

import gc
import tracemalloc
from dataclasses import asdict

import pytest

from repro.ckpt import run_fingerprint
from repro.core import VineStalk
from repro.faults.plan import FaultPlan, RegionBlackout, VsaCrashes
from repro.hierarchy import grid_hierarchy
from repro.scenario import ScenarioConfig, build
from repro.sim.sharded import make_walk_workload, run_script
from repro.sim.sharded.core import _tiling_for
from repro.vsa.vsa import VsaHost
from repro.workload import schedule_workload


class ForcedHosts(VineStalk):
    """The oracle: every region's VSA host built up front."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        for region in self.network.hosts:
            self.network.hosts[region]


#: The walk starts at (8, 0) and takes eight steps; the far corner is
#: blacked out from t=0, and every region draws a crash each period
#: until the horizon.
FAR = ((14, 15), (15, 14), (15, 15))
PLAN = FaultPlan.of(
    RegionBlackout(at=0.0, duration=60.0, regions=FAR),
    VsaCrashes(rate=0.02, period=30.0, downtime=20.0),
    horizon=300.0,
)
LAZY = ScenarioConfig(r=2, max_level=4, seed=5, fault_plan=PLAN)
FORCED = LAZY.with_(system=ForcedHosts)
SCRIPT = make_walk_workload(_tiling_for(LAZY), 8, 4, 5)
HOST_CLOCKS = {"wall_s", "busy_s", "barrier_wait_s", "shard_busy_s", "critical_path_s"}


def _hosts():
    gc.collect()
    return sum(isinstance(obj, VsaHost) for obj in gc.get_objects())


def test_a_large_world_builds_no_host():
    before = _hosts()
    scenario = build(ScenarioConfig(r=2, max_level=8))
    assert _hosts() == before
    hosts = scenario.system.network.hosts
    assert (3, 4) in hosts and (256, 0) not in hosts
    assert not hosts.built  # membership builds nothing


def test_a_large_hierarchy_holds_almost_nothing():
    tracemalloc.start()
    try:
        hierarchy = grid_hierarchy(2, 8)
        chain = hierarchy.chain((37, 201))  # what one region's run asks for
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held <= 5 * 2**20
    assert [hierarchy.head(c) for c in chain][-1] == (127, 127)


def _scripted(config):
    scenario = build(config)
    schedule_workload(scenario.system, SCRIPT)
    scenario.sim.run()
    return scenario


def test_lazy_hosts_fingerprint_equals_forced():
    lazy, forced = _scripted(LAZY), _scripted(FORCED)
    assert run_fingerprint(lazy) == run_fingerprint(forced)
    assert lazy.fault_stats == forced.fault_stats
    assert lazy.fault_stats.crashes > 0 and lazy.fault_stats.blackouts == 3
    built = lazy.system.network.hosts.built
    assert len(built) < len(forced.system.network.hosts.built) == 256
    # The injector read the far corner's hosts to fail them; nothing
    # ever ran there.
    assert all(region in built and not built[region].subautomata() for region in FAR)


@pytest.mark.parametrize("backend", ["plain", "serial"])
def test_lazy_hosts_run_record_equals_forced(backend):
    shards = 2 if backend == "serial" else 1

    def record(config):
        fields = asdict(run_script(config.with_(shards=shards), SCRIPT, backend))
        return {k: v for k, v in fields.items() if k not in HOST_CLOCKS}

    lazy = record(LAZY)
    assert lazy == record(FORCED)
    assert lazy["finds"] and lazy["fault_events"]["crashes"] > 0
