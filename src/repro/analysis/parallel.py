"""Process-parallel experiment sweeps and the canonical job sets.

Each experiment runner in :mod:`repro.analysis.experiments` builds a
fresh world from an explicit seed, so a sweep (many runner calls with
different parameters) is embarrassingly parallel:

* :class:`JobSpec` — one picklable runner invocation (registry name +
  kwargs).  Specs carry names, not callables, so workers resolve the
  runner themselves and nothing non-picklable crosses the process
  boundary.
* :class:`SweepRunner` — executes a job list, in process or over a
  :class:`~concurrent.futures.ProcessPoolExecutor` of pre-warmed
  workers, and returns :class:`JobResult` records **in submission
  order**; serial and pool values are identical.
* The canonical job sets (:func:`e1_jobs`, :func:`e2_jobs`,
  :func:`e8_jobs`, :func:`chaos_jobs`, :func:`scale_jobs`) are the one
  place those sweeps' parameters are written down: the experiment
  registry (:mod:`repro.analysis.reporting`) runs them as they are, the
  ``paper-sweep`` workload of ``benchmarks/perf`` scales them up.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from importlib import import_module
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..topo import topology_cache
from ..topo.keys import TopologyKey, grid_key

# Registry of sweepable runners: spec name → "module:attribute".  Names
# (not callables) keep JobSpec picklable and lazily resolvable in worker
# processes without import cycles.
RUNNERS: Dict[str, str] = {
    "move_walk": "repro.analysis.experiments:run_move_walk",
    "find_sweep": "repro.analysis.experiments:run_find_sweep",
    "baseline_comparison": "repro.analysis.experiments:run_baseline_comparison",
    "invariant_watch": "repro.analysis.experiments:run_invariant_watch",
    "scale_probe": "repro.analysis.experiments:run_scale_probe",
    "chaos": "repro.analysis.recovery:run_chaos",
    "sharded_walk": "repro.sim.sharded.runner:run_sharded_walk",
}


def resolve_runner(name: str) -> Callable[..., Any]:
    """Look up a registered runner by spec name."""
    try:
        target = RUNNERS[name]
    except KeyError:
        raise KeyError(
            f"unknown runner {name!r}; registered: {sorted(RUNNERS)}"
        ) from None
    module_name, _, attr = target.partition(":")
    return getattr(import_module(module_name), attr)


@dataclass(frozen=True)
class JobSpec:
    """One picklable runner invocation."""

    runner: str
    kwargs: Dict[str, Any] = field(default_factory=dict)


def job(runner: str, **kwargs: Any) -> JobSpec:
    """Shorthand constructor: ``job("move_walk", r=2, max_level=4, ...)``."""
    return JobSpec(runner=runner, kwargs=kwargs)


@dataclass
class JobResult:
    """Outcome of one job: the runner's return value plus measurements.

    ``wall_seconds`` is the job's total in-process wall; it splits into
    ``setup_seconds`` (world construction — time spent inside
    ``repro.scenario.build``, i.e. hierarchy/tiling/system assembly) and
    ``run_seconds`` (everything else: driving the simulation and
    measuring).  A warm topology cache shrinks the setup share; the run
    share is the irreducible per-job work.
    """

    spec: JobSpec
    value: Any
    wall_seconds: float
    events: int
    setup_seconds: float = 0.0
    run_seconds: float = 0.0


def _execute(spec: JobSpec) -> JobResult:
    """Run one job in the current process (parent or pool worker)."""
    from ..sim import engine
    from ..topo import setup_seconds_total

    fn = resolve_runner(spec.runner)
    events_before = engine.events_fired_total()
    setup_before = setup_seconds_total()
    start = time.perf_counter()
    value = fn(**spec.kwargs)
    wall = time.perf_counter() - start
    events = engine.events_fired_total() - events_before
    setup = min(wall, setup_seconds_total() - setup_before)
    return JobResult(
        spec=spec,
        value=value,
        wall_seconds=wall,
        events=events,
        setup_seconds=setup,
        run_seconds=max(0.0, wall - setup),
    )


def _grid_key_of(spec: JobSpec) -> Optional[TopologyKey]:
    """Key of the grid world ``spec`` builds, from its ``r``/``max_level``.

    ``scale_probe`` defaults to ``r=2``, as its runner does.  ``None`` when
    the kwargs do not say (e.g. an explicit ``hierarchy``) or are out of
    range — that fails in the runner, not here.
    """
    r = spec.kwargs.get("r", 2 if spec.runner == "scale_probe" else None)
    try:
        return grid_key(int(r), int(spec.kwargs.get("max_level")))
    except (TypeError, ValueError):
        return None


def topology_keys_of(jobs: Sequence[JobSpec]) -> Tuple[TopologyKey, ...]:
    """Distinct topology keys a job list will build, in first-use order.

    Best-effort: jobs without an inferable world contribute nothing —
    the worker then simply builds that world on first use.
    """
    keys = (_grid_key_of(spec) for spec in jobs)
    return tuple(dict.fromkeys(key for key in keys if key is not None))


def _warm_worker(keys: Tuple[TopologyKey, ...]) -> None:
    """Pool initializer: pre-build the sweep's topologies in this worker."""
    topology_cache().warm(keys)


class SweepRunner:
    """Executes experiment sweeps, serially or across worker processes.

    Args:
        workers: Worker-process count (default 1: serial).
        mode: ``"parallel"`` (default) or ``"serial"``.

    The pool runs iff ``mode == "parallel"``, ``workers >= 2`` and there
    is more than one job; everything else is the in-process loop.

    The pool's initializer pre-warms each worker's topology cache with
    the sweep's distinct keys (:func:`topology_keys_of`).  Jobs go to
    the pool one task each, largest world first (``r**(2*max_level)``
    regions, ties in submission order), so the longest job never starts
    last; results still come back in submission order, and serial and
    parallel values are identical because every runner derives its
    world from its explicit seed.
    """

    def __init__(self, workers: int = 1, mode: str = "parallel") -> None:
        if mode not in ("serial", "parallel"):
            raise ValueError(f"mode must be serial/parallel, got {mode!r}")
        self.workers = max(1, int(workers))
        self.mode = mode

    def run(self, jobs: Sequence[JobSpec]) -> List[JobResult]:
        """Execute every job; results in submission order."""
        jobs = list(jobs)
        for spec in jobs:  # fail fast on typos, before forking
            resolve_runner(spec.runner)
        workers = min(self.workers, len(jobs))
        if self.mode == "parallel" and workers >= 2:
            return self._run_pool(jobs, workers)
        return [_execute(spec) for spec in jobs]

    def _run_pool(self, jobs: List[JobSpec], workers: int) -> List[JobResult]:
        keys = topology_keys_of(jobs)

        def regions(i: int) -> int:
            key = _grid_key_of(jobs[i])
            return key.r ** (2 * key.max_level) if key is not None else 0

        # Stable sort: equal worlds keep their submission order.
        order = sorted(range(len(jobs)), key=regions, reverse=True)
        with ProcessPoolExecutor(
            max_workers=workers, initializer=_warm_worker, initargs=(keys,)
        ) as executor:
            futures = {i: executor.submit(_execute, jobs[i]) for i in order}
            return [futures[i].result() for i in range(len(jobs))]

    def run_values(self, jobs: Sequence[JobSpec]) -> List[Any]:
        """Like :meth:`run`, but return just the runner return values."""
        return [result.value for result in self.run(jobs)]


# ----------------------------------------------------------------------
# Canonical sweep job sets
# ----------------------------------------------------------------------
def e1_jobs(moves: int = 40, seed: int = 11) -> List[JobSpec]:
    """E1 move-cost sweep: r=2 and r=3 diameter series plus burstiness."""
    jobs = [
        job("move_walk", r=2, max_level=M, n_moves=moves, seed=seed)
        for M in (2, 3, 4, 5)
    ]
    jobs += [
        job("move_walk", r=3, max_level=M, n_moves=moves, seed=seed)
        for M in (2, 3)
    ]
    jobs.append(job("move_walk", r=2, max_level=4, n_moves=2 * moves, seed=seed))
    return jobs


def e2_jobs(
    distances: Sequence[int] = (1, 2, 3, 4, 6, 8, 12),
    finds_per_distance: int = 4,
) -> List[JobSpec]:
    """E2 find-cost sweep: one job per seeded 16×16 sweep."""
    return [
        job(
            "find_sweep",
            r=2,
            max_level=4,
            distances=list(distances),
            seed=seed,
            finds_per_distance=finds_per_distance,
        )
        for seed in (21, 22, 23)
    ]


def e8_jobs(
    levels: Sequence[int] = (3, 4, 5, 6),
    n_moves: int = 12,
    n_finds: int = 6,
    find_distance: int = 2,
    seed: int = 61,
) -> List[JobSpec]:
    """E8 baseline-comparison sweep: one job per world size."""
    return [
        job(
            "baseline_comparison",
            r=2,
            max_level=M,
            n_moves=n_moves,
            n_finds=n_finds,
            find_distance=find_distance,
            seed=seed,
        )
        for M in levels
    ]


def scale_jobs(levels: Sequence[int] = (4, 5, 6)) -> List[JobSpec]:
    """Scalability sweep: one job per world size (r=2)."""
    return [job("scale_probe", max_level=M) for M in levels]


def chaos_jobs(
    loss_rates: Sequence[float] = (0.0, 0.05, 0.15),
    crash_rates: Sequence[float] = (0.0, 0.05),
    systems: Sequence[str] = ("stabilizing", "vinestalk"),
    r: int = 2,
    max_level: int = 2,
    seed: int = 7,
    duration: float = 150.0,
    max_recovery_wait: float = 600.0,
) -> List[JobSpec]:
    """X5 chaos sweep: loss-rate × crash-rate grid per system variant."""
    return [
        job(
            "chaos",
            r=r,
            max_level=max_level,
            seed=seed,
            system=system,
            loss_rate=loss,
            crash_rate=crash,
            duration=duration,
            max_recovery_wait=max_recovery_wait,
        )
        for system in systems
        for loss in loss_rates
        for crash in crash_rates
    ]
