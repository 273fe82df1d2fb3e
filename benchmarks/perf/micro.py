"""Workload-independent micro-benches: one layer's public API per bench.

Each bench calls one layer's public functions directly on a fixed-seed
input and reports the median of :data:`REPS` timings (:data:`SLOW_REPS`
for the three checkpoint benches, about a second per timing), in ns, us
or ms per call.  ``micro.calibration_ns`` is a fixed pure-Python loop run in
the same process, so a reader can tell a slower host from a slower
layer.  None of these is gated; they localise a regression without a
profiler.
"""

from __future__ import annotations

import gc
import json
import os
import random
import sys
import tempfile
from statistics import median
from time import perf_counter
from typing import Callable, Dict

REPS = 5
SLOW_REPS = 3
SEED = 7


def _timed(fn: Callable[[], None]) -> float:
    gc.collect()
    start = perf_counter()
    fn()
    return perf_counter() - start


def _median_per_call(fn: Callable[[], None], calls: int, unit: float,
                     prepare: Callable[[], None] = lambda: None,
                     slow: bool = False) -> float:
    """Median over REPS (SLOW_REPS) of ``fn``'s wall per call, in ``unit`` seconds."""
    samples = []
    for _ in range(SLOW_REPS if slow else REPS):
        prepare()
        samples.append(_timed(fn) / calls / unit)
    return median(samples)


def _reference_world():
    """The old BENCH_core reference world: 16x16 regions, evader at centre."""
    from repro.mobility.models import RandomNeighborWalk
    from repro.scenario import ScenarioConfig, build

    system = build(ScenarioConfig(r=2, max_level=4)).system
    regions = system.hierarchy.tiling.regions()
    centre = regions[len(regions) // 2]
    evader = system.make_evader(
        RandomNeighborWalk(start=centre), dwell=1e12, start=centre,
        rng=random.Random(3),
    )
    system.run_to_quiescence()
    return system, evader, regions


def calibration_loop(n: int) -> None:
    """The fixed pure-Python loop host speed is measured with."""
    total = 0
    table = {}
    for i in range(n):
        table[i & 255] = total
        total += i ^ (total & 7)


def host_ns_per_iteration(n: int = 2_000_000) -> float:
    """Host ns per calibration-loop iteration, right now (about 0.25 s)."""
    start = perf_counter()
    calibration_loop(n)
    return (perf_counter() - start) / n * 1e9


def calibration_ns() -> float:
    n = 200_000
    return _median_per_call(lambda: calibration_loop(n), n, 1e-9)


def queue_benches() -> Dict[str, float]:
    from repro.sim.event_queue import EventQueue

    n = 20_000
    rng = random.Random(SEED)
    times = [rng.random() * 1000.0 for _ in range(n)]

    def noop() -> None:
        pass

    def push_pop() -> None:
        queue = EventQueue()
        for t in times:
            queue.push(t, noop)
        while queue.pop_next_before(None) is not None:
            pass

    events = []

    def fill() -> None:
        queue = EventQueue()
        events[:] = [(queue, queue.push(t, noop)) for t in times]

    def cancel() -> None:
        for queue, event in events:
            queue.cancel(event)

    return {
        "micro.sim.queue.push_pop_ns": _median_per_call(push_pop, n, 1e-9),
        "micro.sim.queue.cancel_ns": _median_per_call(cancel, n, 1e-9, prepare=fill),
    }


def loop_event_ns() -> float:
    from repro.sim.engine import Simulator

    n = 20_000
    sims = []

    def noop() -> None:
        pass

    def fill() -> None:
        sim = Simulator()
        for i in range(n):
            sim.call_at(float(i), noop)
        sims[:] = [sim]

    return _median_per_call(lambda: sims[0].run(), n, 1e-9, prepare=fill)


def world_benches() -> Dict[str, float]:
    """Kick, C-gcast send, one move and one find on the reference world."""
    from repro.topo import reset_topology_cache

    reset_topology_cache()
    system, evader, regions = _reference_world()
    tracker = system.tracker_at(regions[0], 0)
    kick = system.network.executor.kick
    n_kick = 20_000

    def kicks() -> None:
        for _ in range(n_kick):
            kick(tracker)

    moves = 60

    def walk() -> None:
        for _ in range(moves):
            evader.step()
            system.run_to_quiescence()

    origins = random.Random(SEED).sample(regions, 20)

    def finds() -> None:
        for origin in origins:
            system.issue_find(origin)
            system.run_to_quiescence()

    out = {
        "micro.tioa.kick_idle_ns": _median_per_call(kicks, n_kick, 1e-9),
        "micro.core.move_us": _median_per_call(walk, moves, 1e-6),
        "micro.core.find_us": _median_per_call(finds, len(origins), 1e-6),
    }

    # Sends pile up undelivered on a world of their own, dropped after.
    from repro.core.messages import Grow

    n_send = 5_000
    worlds = []

    def fresh() -> None:
        worlds[:] = [_reference_world()[0]]

    def sends() -> None:
        world = worlds[0]
        src = world.hierarchy.cluster(regions[0], 0)
        dest = world.hierarchy.nbrs(src)[0]
        message = Grow(cid=src)
        send = world.cgcast.send_vsa
        for _ in range(n_send):
            send(src, dest, message)

    out["micro.geocast.send_ns"] = _median_per_call(sends, n_send, 1e-9, prepare=fresh)
    return out


def topo_benches() -> Dict[str, float]:
    from repro.topo import TopologyCache, distance_table, topology_cache

    hierarchy = topology_cache().grid(2, 4)
    tiling = hierarchy.tiling
    regions = tiling.regions()
    rng = random.Random(SEED)
    pairs = [(rng.choice(regions), rng.choice(regions)) for _ in range(20_000)]
    routes = topology_cache().routes(tiling)
    table = distance_table(tiling)
    for src, dest in pairs:  # warm: the benches time lookups, not BFS
        routes.path(src, dest)
        table.distance(src, dest)

    def route() -> None:
        path = routes.path
        for src, dest in pairs:
            path(src, dest)

    def distance() -> None:
        lookup = table.distance
        for src, dest in pairs:
            lookup(src, dest)

    return {
        "micro.topo.route_ns": _median_per_call(route, len(pairs), 1e-9),
        "micro.topo.distance_ns": _median_per_call(distance, len(pairs), 1e-9),
        "micro.topo.build_ms": _median_per_call(
            lambda: TopologyCache().grid(2, 4), 1, 1e-3
        ),
    }


def vbcast_ns() -> float:
    from repro.sim.engine import Simulator
    from repro.topo import topology_cache
    from repro.vsa.vbcast import VBcast

    tiling = topology_cache().grid(2, 4).tiling
    regions = tiling.regions()
    n = 5_000
    channels = []

    def fresh() -> None:
        vbcast = VBcast(Simulator(), tiling, delta=1.0, e=0.5)
        for region in regions:
            vbcast.register(region, "sink", lambda message, source: None)
        channels[:] = [vbcast]

    def bcasts() -> None:
        bcast = channels[0].bcast
        for i in range(n):
            bcast(regions[i % len(regions)], "m", from_vsa=True)

    return _median_per_call(bcasts, n, 1e-9, prepare=fresh)


def build_benches() -> Dict[str, float]:
    from repro.scenario import ScenarioConfig, build
    from repro.topo import reset_topology_cache

    config = ScenarioConfig(r=2, max_level=4)
    cold = _median_per_call(lambda: build(config), 1, 1e-3,
                            prepare=reset_topology_cache)
    warm = _median_per_call(lambda: build(config), 1, 1e-3)
    return {"micro.scenario.build_cold_ms": cold, "micro.scenario.build_warm_ms": warm}


def ckpt_benches() -> Dict[str, float]:
    """Snapshot, save+load and restore of an M=1000 service world at t=60."""
    from repro import ckpt
    from repro.scenario import build
    from repro.workload import schedule_workload

    from .workloads import BY_NAME

    config, script = BY_NAME["service-m2k"].set_up(SEED, scale=0.5)  # M=1000
    scenario = build(config)
    schedule_workload(scenario.system, script)
    scenario.system.sim.run_until(60.0)
    snapshots = []

    def snapshot() -> None:
        snapshots[:] = [ckpt.snapshot_scenario(scenario)]

    out = {"micro.ckpt.snapshot_ms": _median_per_call(snapshot, 1, 1e-3, slow=True)}
    frozen = snapshots[0]
    out["micro.ckpt.bytes"] = float(len(frozen.payload))
    out["micro.ckpt.restore_ms"] = _median_per_call(
        lambda: ckpt.restore_scenario(frozen), 1, 1e-3, slow=True
    )
    here = os.path.dirname(os.path.abspath(__file__))
    os.makedirs(os.path.join(here, "out"), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=os.path.join(here, "out")) as scratch:
        path = os.path.join(scratch, "world.ckpt")

        def save_load() -> None:
            ckpt.save(frozen, path)
            ckpt.load(path)

        out["micro.ckpt.save_load_ms"] = _median_per_call(
            save_load, 1, 1e-3, slow=True
        )
    return out


def materialize_ms() -> float:
    from repro.service.load import LoadGenerator
    from repro.topo import topology_cache
    from repro.workload import materialize

    tiling = topology_cache().grid(3, 2).tiling
    generator = LoadGenerator(tiling, n_objects=10_000, n_finds=1_000,
                              find_clients=16, rate=400.0, moves_per_object=2,
                              deadline=60.0)
    return _median_per_call(lambda: materialize(generator, SEED), 1, 1e-3)


def service_metrics_ms() -> float:
    from repro.service.metrics import service_metrics

    rng = random.Random(SEED)
    finds = {
        i: {
            "object_id": i % 1000,
            "issued_at": i * 0.01,
            "deadline": 60.0,
            "completed": i % 50 != 0,
            "latency": 10.0 + rng.random() * 80.0,
            "work": float(rng.randrange(5, 90)),
            "deadline_missed": i % 50 == 0,
        }
        for i in range(10_000)
    }
    handovers = {i: rng.randrange(0, 9) for i in range(1000)}
    return _median_per_call(lambda: service_metrics(finds, handovers), 1, 1e-3)


def run_all() -> Dict[str, float]:
    """Every ``micro.*`` metric, calibration first and in this process."""
    out = {"micro.calibration_ns": calibration_ns()}
    out.update(queue_benches())
    out["micro.sim.loop.event_ns"] = loop_event_ns()
    out.update(world_benches())
    out.update(topo_benches())
    out["micro.vsa.vbcast_ns"] = vbcast_ns()
    out.update(build_benches())
    out.update(ckpt_benches())
    out["micro.workload.materialize_ms"] = materialize_ms()
    out["micro.service.metrics_ms"] = service_metrics_ms()
    return out


def main() -> int:
    start = perf_counter()
    results = run_all()
    for name, value in results.items():
        print(f"{name} {value:.3f}", file=sys.stderr)
    print(f"micro total {perf_counter() - start:.2f} s", file=sys.stderr)
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
