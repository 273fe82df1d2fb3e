"""One rep of one workload, in a fresh single-threaded process.

``python -m benchmarks.perf.child --workload NAME --seed N`` does, in
order: import and a tiny discarded warm-up run; the cold set-up, timed
(``setup_s``, several times over, each on an emptied ``repro.topo``
cache); one timed call into the program (``wall_s``); the simulated
outputs.  It prints one JSON object as its last line of output.

With ``--traced`` the set-up and the run happen once each under the
outside-in tracer, the per-layer numbers join the JSON object and the
spans go to ``--trace-out``.  End-to-end numbers never come from a
traced rep.
"""

from __future__ import annotations

import argparse
import gc
import json
import platform
import resource
import sys
from functools import partial
from time import perf_counter
from typing import Any, Dict, List

from .metrics import per_layer_values
from .micro import host_ns_per_iteration
from .trace import Tracer, install
from .workloads import BY_NAME, WARMUP_SCALE, nproc

#: Cold set-ups timed per untraced child.
SETUP_REPS = 3

#: Values the tracer's counting wrappers own; they read 0 when never hit.
_COUNTED = (
    "faults.perturbed",
    "topo.cache.hits",
    "topo.cache.misses",
    "sim.sharded.barrier_wait_s",
    "sim.sharded.worker_busy_s",
    "sim.sharded.windows",
    "sim.sharded.cross_msgs",
    "analysis.parallel.jobs",
    "analysis.parallel.job_setup_s",
    "analysis.parallel.job_run_s",
    "analysis.parallel.pool_overhead_s",
)


def peak_rss_mb() -> float:
    """Peak RSS of the largest process of this run (self or a worker)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0


def _empty_topo_cache() -> None:
    """Make the next set-up a cold one."""
    from repro.topo import reset_topology_cache

    reset_topology_cache()
    gc.collect()


def run_rep(workload, seed: int, scale: float, in_process: bool) -> Dict[str, Any]:
    """Warm up, time the cold set-up and the run; no tracing.

    The calibration loop runs before the set-ups, between them and the
    run, and after the run, so each timing has the host's speed on both
    sides of it.
    """
    workload.execute(workload.set_up(seed, WARMUP_SCALE * scale), in_process)
    calibrate = partial(host_ns_per_iteration, int(2_000_000 * min(1.0, scale)))
    host_ns = [calibrate()]
    setups: List[float] = []
    for _ in range(SETUP_REPS):
        _empty_topo_cache()
        start = perf_counter()
        inputs = workload.set_up(seed, scale)
        setups.append(perf_counter() - start)
    host_ns.append(calibrate())
    gc.collect()
    start = perf_counter()
    result = workload.execute(inputs, in_process)
    wall = perf_counter() - start
    host_ns.append(calibrate())
    return {
        "wall_s": wall,
        "setup_s": setups,
        "host_ns": host_ns,
        "outputs": workload.outputs(inputs, result),
    }


def run_traced_rep(workload, seed: int, scale: float, in_process: bool,
                   trace_out: str) -> Dict[str, Any]:
    """The same rep with every layer's public callables wrapped in spans."""
    from repro.topo import topology_cache

    workload.execute(workload.set_up(seed, WARMUP_SCALE * scale), in_process)
    single_process = workload.workers(in_process) == 0
    _empty_topo_cache()
    tracer = Tracer()
    install(tracer, in_process=single_process)
    try:
        inputs = tracer.call("workload.setup/cold", workload.set_up, seed, scale)
        gc.collect()
        start = perf_counter()
        result = workload.execute(inputs, in_process)
        wall = perf_counter() - start
    finally:
        tracer.restore()
    outputs = workload.outputs(inputs, result)
    report = tracer.report()

    values: Dict[str, float] = dict.fromkeys(_COUNTED, 0)
    values.update(report["values"])
    stats = topology_cache().stats
    values["topo.cache.hits"] += stats.hierarchy_hits + stats.partition_hits
    values["topo.cache.misses"] += stats.hierarchy_misses + stats.partition_misses
    values["sim.loop.events"] = outputs["events"]
    for name in ("find_latency_p50_sim", "find_latency_p99_sim",
                 "deadline_miss_ratio", "ops_failed_ratio"):
        values[f"service.{name}"] = outputs[name]
    transport = sum(
        seconds for name, seconds in report["self_s"].items()
        if name.startswith("sim.sharded.transport/")
    )
    if not single_process and "sim.sharded.run_wall_s" in values:
        # The driver's transport spans wait on the workers; the busiest
        # worker's compute (run wall - barrier wait) is not transport.
        transport -= values["sim.sharded.run_wall_s"] - values["sim.sharded.barrier_wait_s"]
    values["sim.sharded.transport.self_s"] = max(0.0, transport)
    values.update(workload.driver_values(result, wall, in_process))
    values["trace.root_wall_s"] = sum(report["self_s"].values())

    origin = min((span[2] for span in report["spans"]), default=0.0)
    for span in report["spans"]:
        span[2] -= origin
        span[3] -= origin
    report.update(workload=workload.name, seed=seed, scale=scale,
                  in_process=single_process, wall_s=wall, values=values)
    with open(trace_out, "w") as handle:
        json.dump(report, handle)
    return {
        "wall_s": wall,
        "setup_s": [],
        "outputs": outputs,
        "layers": per_layer_values(report, values),
        "trace_file": trace_out,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(BY_NAME))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--in-process", action="store_true",
                        help="run the single-process twin (serial shards / serial sweep)")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--trace-out", default="")
    args = parser.parse_args(argv)

    workload = BY_NAME[args.workload]
    if args.traced:
        rep = run_traced_rep(workload, args.seed, args.scale, args.in_process,
                             args.trace_out)
    else:
        rep = run_rep(workload, args.seed, args.scale, args.in_process)
    rep.update(
        workload=workload.name,
        seed=args.seed,
        peak_rss_mb=peak_rss_mb(),
        nproc=nproc(),
        python=platform.python_version(),
    )
    print(json.dumps(rep))
    return 0


if __name__ == "__main__":
    sys.exit(main())
