"""The six named workloads: inputs, the call that is timed, and outputs.

Every workload follows one shape, so the child process treats them alike:

* ``set_up(seed, scale)`` makes the inputs from the seed and performs
  the full cold set-up the program would (this call is what ``setup_s``
  times); it returns the frozen input handed to the program;
* ``execute(inputs, in_process)`` is the one call ``wall_s`` times;
* ``outputs(inputs, result)`` extracts the simulated (host-independent)
  outputs that the checks compare exactly.

All service workloads share ``delta=1.0, e=0.5, dwell=40`` and Poisson
find arrivals (an open loop in *simulated* time; on the host a run is a
batch, "script in, quiescence out").  Sizes were chosen on the 2-core
reference box so that one timed call lasts 2-10 s.
"""

from __future__ import annotations

import os
import zlib
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

#: The seed whose simulated outputs ``expected.json`` pins.
PINNED_SEED = 7
#: Script size of the discarded warm-up run, as a share of full size.
WARMUP_SCALE = 0.02
#: Script size of ``--quick`` runs.
QUICK_SCALE = 0.1


def nproc() -> int:
    """Cores this process may use (never start more workers than this)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _scaled(value: int, scale: float) -> int:
    return max(1, int(round(value * scale)))


@dataclass(frozen=True)
class ServiceWorkload:
    """One ``TrackingService`` run over an open-loop ``LoadGenerator`` script.

    ``scaled`` names the size fields that shrink with ``scale``; ``rate``
    is the Poisson find rate, per tracked object when
    ``rate_per_object`` is set (so a scaled script keeps its shape).
    """

    name: str
    why: str
    r: int
    max_level: int
    objects: int
    moves: int
    finds: int
    clients: int
    rate: float
    deadline: float
    scaled: Tuple[str, ...]
    rate_per_object: bool = False
    shards: int = 1
    armed: bool = False
    #: Workload whose run on the byte-identical script must agree with
    #: this one's on every engine-invariant output.
    reference: Optional[str] = None

    def size(self, scale: float) -> Dict[str, int]:
        return {
            field: _scaled(getattr(self, field), scale)
            if field in self.scaled
            else getattr(self, field)
            for field in ("objects", "moves", "finds")
        }

    def config(self, seed: int, scale: float):
        from repro.scenario import ScenarioConfig

        extra: Dict[str, Any] = {}
        if self.armed:
            from repro.energy.model import EnergyModel
            from repro.faults.plan import (
                FaultPlan,
                MessageDuplication,
                MessageJitter,
                MessageLoss,
            )

            extra = {
                "fault_plan": FaultPlan.of(
                    MessageLoss(0.02, "both"),
                    MessageDuplication(0.02, "both"),
                    MessageJitter(0.10, "both", max_extra=1.0),
                ),
                "stable_fault_draws": True,
                "energy": EnergyModel(),
            }
        return ScenarioConfig(
            r=self.r,
            max_level=self.max_level,
            delta=1.0,
            e=0.5,
            seed=seed,
            shards=self.shards,
            n_objects=self.size(scale)["objects"],
            find_clients=self.clients,
            **extra,
        )

    def set_up(self, seed: int, scale: float = 1.0):
        from repro.scenario import build
        from repro.service.load import LoadGenerator
        from repro.topo import topology_cache
        from repro.workload import materialize, schedule_workload

        config = self.config(seed, scale)
        size = self.size(scale)
        tiling = topology_cache().grid(self.r, self.max_level).tiling
        generator = LoadGenerator(
            tiling,
            n_objects=size["objects"],
            n_finds=size["finds"],
            find_clients=self.clients,
            arrival="poisson",
            rate=self.rate * size["objects"] if self.rate_per_object else self.rate,
            moves_per_object=size["moves"],
            dwell=40.0,
            deadline=self.deadline,
        )
        script = materialize(generator, seed)
        scenario = build(config.with_(shards=1))
        schedule_workload(scenario.system, script)
        return config, script

    def workers(self, in_process: bool = False) -> int:
        """Worker processes the run forks (0: the world is in this process)."""
        if self.shards > 1 and not in_process and nproc() >= self.shards:
            return self.shards
        return 0

    def execute(self, inputs, in_process: bool = False):
        import repro.obs as obs
        from repro.service.service import TrackingService

        config, script = inputs
        engine = "sharded" if self.shards > 1 else "plain"
        backend = "processes" if self.workers(in_process) else "serial"
        armed = obs.observed(spans=False, events=True) if self.armed else nullcontext()
        with armed:
            return TrackingService(config, engine, backend).run(script)

    def driver_values(self, result, wall: float, in_process: bool) -> Dict[str, float]:
        """Per-layer values only the driving process can supply: none."""
        return {}

    def outputs(self, inputs, result) -> Dict[str, Any]:
        from repro.workload import IssueFind

        _, script = inputs
        moves = sum(1 for a in script.actions if not isinstance(a, IssueFind))
        metrics = result.metrics  # the service's own summary of its finds
        issued = metrics["finds_issued"]
        records = sorted(
            (find_id, sorted(info.items())) for find_id, info in result.finds.items()
        )
        return {
            "operations": len(script.actions),
            "events": result.events,
            "messages_sent": result.messages_sent,
            "finds_issued": issued,
            "finds_completed": metrics["finds_completed"],
            "fingerprint": result.canonical_fingerprint,
            "finds_digest": f"{zlib.crc32(repr(records).encode()):08x}",
            "find_latency_mean_sim": metrics["latency"]["mean"],
            "find_latency_p50_sim": metrics["latency"]["p50"],
            "find_latency_p99_sim": metrics["latency"]["p99"],
            "deadline_miss_ratio": metrics["deadline_miss_rate"],
            "ops_failed_ratio": (issued - metrics["finds_completed"]) / issued,
            "work_per_find": result.work["find"] / issued,
            "work_per_move": result.work["move"] / moves,
        }


@dataclass(frozen=True)
class SweepWorkload:
    """The "regenerate the paper's tables" sweep through ``SweepRunner``."""

    name: str
    why: str
    moves: int = 800
    finds_per_distance: int = 80
    comparison_steps: int = 120
    armed = False
    reference = None  # its own in-process pass is the oracle

    def jobs(self, seed: int, scale: float):
        from repro.analysis.parallel import (
            e1_jobs,
            e2_jobs,
            e8_jobs,
            job,
            scale_jobs,
        )

        steps = _scaled(self.comparison_steps, scale)
        jobs = (
            e1_jobs(moves=_scaled(self.moves, scale))
            + e2_jobs(finds_per_distance=_scaled(self.finds_per_distance, scale))
            + e8_jobs(n_moves=steps, n_finds=steps)
            + [job(s.runner, seed=5, **s.kwargs) for s in scale_jobs()]
        )
        # The canonical job sets carry the paper tables' own seeds; the
        # run seed shifts them all, so PINNED_SEED reproduces the tables.
        shift = seed - PINNED_SEED
        return [
            job(s.runner, **{**s.kwargs, "seed": s.kwargs["seed"] + shift})
            for s in jobs
        ]

    def set_up(self, seed: int, scale: float = 1.0):
        from repro.analysis.parallel import topology_keys_of
        from repro.scenario import ScenarioConfig, build
        from repro.topo import topology_cache

        jobs = self.jobs(seed, scale)
        keys = topology_keys_of(jobs)
        topology_cache().warm(keys)
        for key in keys:
            build(ScenarioConfig(r=key.r, max_level=key.max_level))
        return jobs

    def workers(self, in_process: bool = False) -> int:
        """Pool processes the run forks (0: jobs run in this process)."""
        return 0 if in_process or nproc() < 2 else 2

    def execute(self, inputs, in_process: bool = False):
        from repro.analysis.parallel import SweepRunner

        workers = self.workers(in_process)
        mode = "parallel" if workers else "serial"
        return SweepRunner(workers=max(1, workers), mode=mode).run(inputs)

    def driver_values(self, results, wall: float, in_process: bool) -> Dict[str, float]:
        """The ``analysis.parallel.*`` values, from the jobs' own clocks."""
        workers = max(1, self.workers(in_process))
        return {
            "analysis.parallel.jobs": len(results),
            "analysis.parallel.job_setup_s": sum(r.setup_seconds for r in results),
            "analysis.parallel.job_run_s": sum(r.run_seconds for r in results),
            "analysis.parallel.pool_overhead_s": wall
            - sum(r.wall_seconds for r in results) / workers,
        }

    def outputs(self, inputs, results) -> Dict[str, Any]:
        from repro.service.metrics import latency_percentiles

        values = []
        finds: List[Tuple[bool, float, float]] = []  # completed, latency, work
        move_work = moves = 0.0
        for result in results:
            value = result.value
            runner = result.spec.runner
            if runner == "move_walk":
                move_work += value.total_move_work
                moves += value.moves
            elif runner == "find_sweep":
                finds += [(f.completed, f.latency, f.work) for f in value]
            elif runner == "scale_probe":
                # build_s is a host time; everything else is simulated.
                value = {k: v for k, v in value.items() if k != "build_s"}
            values.append(value)
        latencies = [latency for done, latency, _ in finds if done]
        latency = latency_percentiles(latencies)
        issued = len(finds)
        failed = (issued - len(latencies)) / issued
        return {
            "operations": len(results),
            "events": sum(r.events for r in results),
            "messages_sent": 0,
            "finds_issued": issued,
            "finds_completed": len(latencies),
            "fingerprint": f"{zlib.crc32(repr(values).encode()):08x}",
            "finds_digest": f"{zlib.crc32(repr(finds).encode()):08x}",
            "find_latency_mean_sim": latency["mean"],
            "find_latency_p50_sim": latency["p50"],
            "find_latency_p99_sim": latency["p99"],
            # The sweep stamps no deadline: a find misses iff it never ends.
            "deadline_miss_ratio": failed,
            "ops_failed_ratio": failed,
            "work_per_find": sum(work for _, _, work in finds) / issued,
            "work_per_move": move_work / moves,
        }


WORKLOADS = (
    ServiceWorkload(
        name="service-m2k",
        why="M=2000 lanes per Tracker and a deep event heap on an 81-region world whose "
        "C-gcast pairs are all memoised: lane scheduling, queue and bare dispatch do the work",
        r=3, max_level=2, objects=2000, moves=2, finds=2000, clients=16,
        rate=1 / 25, rate_per_object=True, deadline=60.0, scaled=("objects", "finds"),
    ),
    ServiceWorkload(
        name="deep-move",
        why="write side of the paper's regime: grow/shrink cascades and timers over six "
        "levels with 8 lanes and a shallow heap, so lane-count changes predict no change here",
        r=2, max_level=5, objects=8, moves=1000, finds=200, clients=16,
        rate=0.01, deadline=250.0, scaled=("moves", "finds"),
    ),
    ServiceWorkload(
        name="deep-find",
        why="read side of the same six levels: search/trace phases and long-distance C-gcast "
        "over the largest (src,dest) working set; bypasses the move path",
        r=2, max_level=5, objects=64, moves=1, finds=3000, clients=64,
        rate=1.0, deadline=250.0, scaled=("finds",),
    ),
    ServiceWorkload(
        name="armed-m1k",
        why="service-m2k shape at M=1000 with faults, energy and obs events all armed: the "
        "only workload where the interposition hooks do work, twin of the unarmed path",
        r=3, max_level=2, objects=1000, moves=2, finds=1000, clients=16,
        rate=1 / 25, rate_per_object=True, deadline=60.0, scaled=("objects", "finds"),
        armed=True,
    ),
    ServiceWorkload(
        name="sharded-k2",
        why="service-m2k's byte-identical script on the K=2 sharded engine with forked "
        "workers: barrier and pipe transport on real cores, outputs must equal service-m2k",
        r=3, max_level=2, objects=2000, moves=2, finds=2000, clients=16,
        rate=1 / 25, rate_per_object=True, deadline=60.0, scaled=("objects", "finds"),
        shards=2, reference="service-m2k",
    ),
    SweepWorkload(
        name="paper-sweep",
        why="17 table-regeneration jobs on many small worlds through the 2-worker sweep "
        "pool: scenario build, topo caches and fan-out dominate, not the event loop",
    ),
)

BY_NAME = {workload.name: workload for workload in WORKLOADS}
