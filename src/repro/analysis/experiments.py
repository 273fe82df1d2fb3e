"""Experiment runners behind the benchmark harness (E1–E8, SVC).

Each runner builds a fresh world, drives it, and returns a small result
record; the ``benchmarks/`` files and EXPERIMENTS.md generation call
these.  All runners are deterministic for a fixed seed.

Two driving styles coexist here:

* the **interactive** loops (E1–E9): call ``evader.step()``, run to
  quiescence, sample an accountant epoch, repeat — required whenever a
  measurement must interpose *between* moves (per-move work, settle
  times, mid-flight probes);
* the **workload protocol** (:mod:`repro.workload`): experiments whose
  drive is a pure timed event stream go through ``Workload.events(seed)``
  — one frozen script that runs bit-identically on the plain engine and
  the any-K sharded engine.  :func:`run_service_mk` (the M×K service
  scaling table) is the canonical protocol-driven experiment; new
  experiments should prefer this style unless they need interposition.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..core.invariants import InvariantMonitor
from ..core.vinestalk import VineStalk
from ..mobility.models import BoundaryOscillator, RandomNeighborWalk, worst_boundary_pair
from ..scenario import ScenarioConfig, build
from ..topo import topology_cache
from .bounds import (
    find_work_bound,
    move_work_bound_per_distance,
    search_level_for_distance,
)


# ----------------------------------------------------------------------
# E1: move cost (Theorem 4.9)
# ----------------------------------------------------------------------
@dataclass
class MoveCostResult:
    r: int
    max_level: int
    diameter: int
    moves: int
    total_move_work: float
    work_per_distance: float
    bound_per_distance: float
    mean_settle_time: float
    max_settle_time: float
    per_move_work: List[float] = field(default_factory=list)


def run_move_walk(
    r: int,
    max_level: int,
    n_moves: int,
    seed: int = 0,
    delta: float = 1.0,
    e: float = 0.5,
    system_cls=VineStalk,
) -> MoveCostResult:
    """Random neighbor walk with atomic (settled) moves; measures move work."""
    system, accountant = build(
        ScenarioConfig(r=r, max_level=max_level, delta=delta, e=e, system=system_cls)
    ).parts()
    hierarchy = system.hierarchy
    rng = random.Random(seed)
    center = hierarchy.tiling.regions()[len(hierarchy.tiling.regions()) // 2]
    evader = system.make_evader(
        RandomNeighborWalk(start=center), dwell=1e12, start=center, rng=rng
    )
    system.run_to_quiescence()
    baseline = accountant.epoch()

    per_move_work: List[float] = []
    settle_times: List[float] = []
    for _ in range(n_moves):
        before = accountant.epoch()
        start = system.sim.now
        evader.step()
        system.run_to_quiescence()
        settle_times.append(system.sim.now - start)
        per_move_work.append(accountant.delta_since(before).move_work)

    total = accountant.epoch().minus(baseline).move_work
    return MoveCostResult(
        r=r,
        max_level=max_level,
        diameter=hierarchy.tiling.diameter(),
        moves=n_moves,
        total_move_work=total,
        work_per_distance=total / max(1, n_moves),
        bound_per_distance=move_work_bound_per_distance(hierarchy.params),
        mean_settle_time=sum(settle_times) / max(1, len(settle_times)),
        max_settle_time=max(settle_times) if settle_times else 0.0,
        per_move_work=per_move_work,
    )


# ----------------------------------------------------------------------
# E2: find cost (Theorem 5.2)
# ----------------------------------------------------------------------
@dataclass
class FindCostResult:
    distance: int
    work: float
    latency: float
    completed: bool
    bound: float
    search_level: int


def run_find_at_distance(
    system: VineStalk,
    evader_region,
    distance: int,
    rng: random.Random,
) -> Optional[FindCostResult]:
    """Issue one find from a region at ``distance`` and measure its cost.

    Returns None when no region lies at exactly that distance.
    """
    tiling = system.hierarchy.tiling
    # In full-scan region order: the seeded ``rng.choice`` depends on it.
    candidates = topology_cache().regions_at_distance(
        tiling, evader_region, distance
    )
    if not candidates:
        return None
    origin = rng.choice(candidates)
    find_id = system.issue_find(origin)
    system.run_to_quiescence()
    record = system.finds.records[find_id]
    params = system.hierarchy.params
    level = search_level_for_distance(params, distance)
    return FindCostResult(
        distance=distance,
        work=record.work,
        latency=record.latency if record.completed else float("inf"),
        completed=record.completed,
        bound=find_work_bound(params, level),
        search_level=level,
    )


def _warm_find_sweep_system(
    r: int, max_level: int, delta: float, e: float
) -> VineStalk:
    """The seed-independent prefix of :func:`run_find_sweep`.

    Build, settle an evader at the center, run to quiescence.  No seeded
    draw happens before quiescence.
    """
    system = build(ScenarioConfig(r=r, max_level=max_level, delta=delta, e=e)).system
    tiling = system.hierarchy.tiling
    center = tiling.regions()[len(tiling.regions()) // 2]
    system.make_evader(RandomNeighborWalk(start=center), dwell=1e12, start=center)
    system.run_to_quiescence()
    return system


def run_find_sweep(
    r: int,
    max_level: int,
    distances: List[int],
    seed: int = 0,
    delta: float = 1.0,
    e: float = 0.5,
    finds_per_distance: int = 3,
) -> List[FindCostResult]:
    """Finds at a sweep of distances from a settled evader at the center."""
    system = _warm_find_sweep_system(r, max_level, delta, e)
    tiling = system.hierarchy.tiling
    center = tiling.regions()[len(tiling.regions()) // 2]
    rng = random.Random(seed)

    results: List[FindCostResult] = []
    for distance in distances:
        for _ in range(finds_per_distance):
            result = run_find_at_distance(system, center, distance, rng)
            if result is not None:
                results.append(result)
    return results


def mean_find_work_by_distance(
    results: List[FindCostResult],
) -> List[Tuple[int, float]]:
    """Aggregate a find sweep into (distance, mean work) pairs."""
    groups: Dict[int, List[float]] = {}
    for result in results:
        groups.setdefault(result.distance, []).append(result.work)
    return [(d, sum(v) / len(v)) for d, v in sorted(groups.items())]


# ----------------------------------------------------------------------
# E4: dithering (lateral links vs none)
# ----------------------------------------------------------------------
@dataclass
class DitheringResult:
    oscillations: int
    work_with_laterals: float
    work_without_laterals: float
    per_move_with: float
    per_move_without: float

    @property
    def advantage(self) -> float:
        if self.work_with_laterals == 0:
            return float("inf")
        return self.work_without_laterals / self.work_with_laterals


def run_dithering(
    r: int,
    max_level: int,
    oscillations: int,
    delta: float = 1.0,
    e: float = 0.5,
) -> DitheringResult:
    """Boundary oscillation: VINESTALK vs the no-lateral baseline."""
    totals = {}
    for label, system_key in (("with", "vinestalk"), ("without", "no-lateral")):
        system, accountant = build(
            ScenarioConfig(r=r, max_level=max_level, delta=delta, e=e, system=system_key)
        ).parts()
        a, b = worst_boundary_pair(system.hierarchy)
        evader = system.make_evader(
            BoundaryOscillator(a, b), dwell=1e12, start=a
        )
        system.run_to_quiescence()
        baseline = accountant.epoch()
        for _ in range(oscillations):
            evader.step()
            system.run_to_quiescence()
        totals[label] = accountant.epoch().minus(baseline).move_work
    return DitheringResult(
        oscillations=oscillations,
        work_with_laterals=totals["with"],
        work_without_laterals=totals["without"],
        per_move_with=totals["with"] / max(1, oscillations),
        per_move_without=totals["without"] / max(1, oscillations),
    )


# ----------------------------------------------------------------------
# E3: invariants under random executions (Lemmas 4.1/4.2)
# ----------------------------------------------------------------------
@dataclass
class InvariantResult:
    moves: int
    max_grow_outstanding: int
    max_shrink_outstanding: int
    lateral_sends: int
    violations: List[str]


def run_invariant_watch(
    r: int,
    max_level: int,
    n_moves: int,
    seed: int = 0,
) -> InvariantResult:
    """Random walk with the Lemma 4.1/4.2 monitor sampling every event."""
    system = build(ScenarioConfig(r=r, max_level=max_level)).system
    system.sim.trace.enabled = True  # monitor needs the trace
    system.sim.trace.capacity = 1  # but not its history
    rng = random.Random(seed)
    center = system.hierarchy.tiling.regions()[0]
    evader = system.make_evader(
        RandomNeighborWalk(start=center), dwell=1e12, start=center, rng=rng
    )
    monitor = InvariantMonitor(system).watch()
    try:
        system.run_to_quiescence()
        for _ in range(n_moves):
            evader.step()
            system.run_to_quiescence()
    finally:
        monitor.stop()  # never leak the trace subscription across jobs
    return InvariantResult(
        moves=n_moves,
        max_grow_outstanding=monitor.max_grow_outstanding,
        max_shrink_outstanding=monitor.max_shrink_outstanding,
        lateral_sends=monitor.lateral_sends_total(),
        violations=monitor.violations,
    )


# ----------------------------------------------------------------------
# E8: baseline comparison on a mixed workload
# ----------------------------------------------------------------------
@dataclass
class ComparisonRow:
    algorithm: str
    move_work: float
    find_work: float

    @property
    def total(self) -> float:
        return self.move_work + self.find_work


def _warm_baseline_state(
    r: int, max_level: int, seed: int, start_corner: bool
) -> Tuple[Any, Any, Any]:
    """The settled pre-measurement world of :func:`run_baseline_comparison`.

    The evader's walk RNG is seeded here, so unlike the find-sweep
    prefix this state is seed-specific.
    """
    config = ScenarioConfig(r=r, max_level=max_level)
    system, accountant = build(config).parts()
    tiling = system.hierarchy.tiling
    regions = tiling.regions()
    center = regions[0] if start_corner else regions[len(regions) // 2]
    evader = system.make_evader(
        RandomNeighborWalk(start=center), dwell=1e12, start=center,
        rng=random.Random(seed),
    )
    system.run_to_quiescence()
    return system, accountant, evader


def run_baseline_comparison(
    r: int,
    max_level: int,
    n_moves: int,
    n_finds: int,
    find_distance: int,
    seed: int = 0,
    start_corner: bool = True,
) -> List[ComparisonRow]:
    """Same workload across VINESTALK, home-agent, flooding and A–P.

    The workload: ``n_moves`` random-walk steps, with ``n_finds`` finds
    issued from regions at ``find_distance`` spread across the run.

    By default the evader roams a corner of the world while the
    home-agent rendezvous sits at the center — fixed rendezvous services
    cannot co-locate with activity, which is exactly the non-locality
    the locality-aware services are designed to avoid.
    """
    rows: List[ComparisonRow] = []

    # --- VINESTALK (message-level) -------------------------------------
    system, accountant, evader = _warm_baseline_state(r, max_level, seed, start_corner)
    config = ScenarioConfig(r=r, max_level=max_level)
    tiling = system.hierarchy.tiling
    rng = random.Random(seed)
    base = accountant.epoch()
    find_every = max(1, n_moves // max(1, n_finds))
    finds_done = 0
    path = [evader.region]
    for step in range(n_moves):
        evader.step()
        path.append(evader.region)
        system.run_to_quiescence()
        if step % find_every == 0 and finds_done < n_finds:
            result = run_find_at_distance(system, evader.region, find_distance, rng)
            finds_done += 1
    used = accountant.epoch().minus(base)
    rows.append(ComparisonRow("vinestalk", used.move_work, used.find_work))

    # --- analytic baselines replay the identical trajectory -------------
    analytic = config.with_(hierarchy=system.hierarchy)
    home = build(analytic.with_(system="home-agent")).system
    ap = build(analytic.with_(system="awerbuch-peleg")).system
    flood = build(analytic.with_(system="flooding")).system
    ap.publish(path[0])
    home.move(path[0])
    flood_work = 0.0
    home_find = ap_find = 0.0
    finds_done = 0
    find_rng = random.Random(seed)
    for step, region in enumerate(path[1:]):
        home.move(region)
        ap.move(region)
        if step % find_every == 0 and finds_done < n_finds:
            candidates = topology_cache().regions_at_distance(
                tiling, region, find_distance
            )
            if candidates:
                origin = find_rng.choice(candidates)
                home_find += home.find(origin).work
                ap_find += ap.find(origin).work
                flood_work += flood.find(origin, region).work
            finds_done += 1
    rows.append(ComparisonRow("home-agent", home.total_move_work, home_find))
    rows.append(ComparisonRow("awerbuch-peleg", ap.total_move_work, ap_find))
    rows.append(ComparisonRow("flooding", 0.0, flood_work))
    return rows


# ----------------------------------------------------------------------
# E6: concurrent moves and finds (§VI)
# ----------------------------------------------------------------------
@dataclass
class ConcurrentResult:
    moves: int
    finds_issued: int
    finds_completed: int
    mean_find_latency: float
    move_work_concurrent: float
    move_work_atomic: float
    max_search_overshoot: int

    @property
    def success_rate(self) -> float:
        return self.finds_completed / max(1, self.finds_issued)

    @property
    def work_ratio(self) -> float:
        return self.move_work_concurrent / max(1e-9, self.move_work_atomic)


def run_concurrent(
    r: int,
    max_level: int,
    n_moves: int,
    n_finds: int,
    seed: int = 0,
    delta: float = 1.0,
    e: float = 0.5,
    settle_level: int = 1,
) -> ConcurrentResult:
    """Moves with the §VI speed restriction, finds issued mid-flight.

    Measures find success/latency, move work versus the identical
    trajectory executed atomically, and the search-level overshoot of
    each find relative to the atomic-case minimum level.
    """
    from ..core.messages import FindQuery
    from ..mobility.speed import concurrent_dwell

    # --- concurrent execution ------------------------------------------
    config = ScenarioConfig(r=r, max_level=max_level, delta=delta, e=e)
    system, accountant = build(config).parts()
    tiling = system.hierarchy.tiling
    params = system.hierarchy.params
    dwell = concurrent_dwell(system.schedule, params, delta, e, settle_level)
    rng = random.Random(seed)
    center = tiling.regions()[len(tiling.regions()) // 2]
    evader = system.make_evader(
        RandomNeighborWalk(start=center), dwell=dwell, start=center,
        rng=random.Random(seed),
    )
    system.run_to_quiescence()
    base = accountant.epoch()

    # Track per-find max query level through a trace subscriber.
    system.sim.trace.enabled = True
    system.sim.trace.capacity = 1
    max_query_level: Dict[int, int] = {}

    def watch_queries(record) -> None:
        if record.kind == "findquery":
            level = int(record.source.split(":")[1])
            find_id = record.detail
            max_query_level[find_id] = max(max_query_level.get(find_id, 0), level)

    system.sim.trace.subscribe(watch_queries)

    evader.start()
    issue_times = sorted(rng.uniform(0, n_moves * dwell) for _ in range(n_finds))
    expected_levels: Dict[int, int] = {}

    def issue_find() -> None:
        origin = rng.choice(tiling.regions())
        find_id = system.issue_find(origin)
        distance = tiling.distance(origin, evader.region)
        expected_levels[find_id] = search_level_for_distance(params, distance)

    start_time = system.sim.now
    for t in issue_times:
        system.sim.call_at(start_time + t, issue_find)
    system.sim.run_until(start_time + n_moves * dwell)
    evader.stop()
    system.run_to_quiescence()
    concurrent_work = accountant.epoch().minus(base).move_work
    trajectory_moves = evader.moves_made

    records = list(system.finds.records.values())
    completed = [rec for rec in records if rec.completed]
    latencies = [rec.latency for rec in completed]
    overshoot = 0
    for find_id, level in max_query_level.items():
        if find_id in expected_levels:
            overshoot = max(overshoot, level - expected_levels[find_id])

    # --- atomic replay of the same trajectory ---------------------------
    atomic_system, atomic_acc = build(config).parts()
    atomic_evader = atomic_system.make_evader(
        RandomNeighborWalk(start=center), dwell=1e12, start=center,
        rng=random.Random(seed),
    )
    atomic_system.run_to_quiescence()
    atomic_base = atomic_acc.epoch()
    for _ in range(trajectory_moves):
        atomic_evader.step()
        atomic_system.run_to_quiescence()
    atomic_work = atomic_acc.epoch().minus(atomic_base).move_work

    return ConcurrentResult(
        moves=trajectory_moves,
        finds_issued=len(records),
        finds_completed=len(completed),
        mean_find_latency=sum(latencies) / len(latencies) if latencies else 0.0,
        move_work_concurrent=concurrent_work,
        move_work_atomic=atomic_work,
        max_search_overshoot=overshoot,
    )


# ----------------------------------------------------------------------
# E9: emulated layer (VSA failure/restart)
# ----------------------------------------------------------------------
@dataclass
class EmulationResult:
    vsa_failures: int
    vsa_restarts: int
    path_broken_after_kill: bool
    path_recovered: bool
    recovery_moves: int


def run_emulation_recovery(
    r: int,
    max_level: int,
    t_restart: float = 5.0,
    seed: int = 0,
    max_recovery_moves: int = 60,
) -> EmulationResult:
    """Kill a VSA on the tracking path, revive it, walk until recovery.

    Measures the §II-C.2 lifecycle (fail on empty region, restart after
    ``t_restart``) and how many evader moves rebuild the structure.
    """
    scenario = build(
        ScenarioConfig(
            r=r,
            max_level=max_level,
            system="emulated",
            nodes_per_region=1,
            t_restart=t_restart,
            seed=seed,
        )
    )
    system, hierarchy = scenario.system, scenario.hierarchy
    rng = random.Random(seed)
    center = hierarchy.tiling.regions()[len(hierarchy.tiling.regions()) // 2]
    evader = system.make_evader(
        RandomNeighborWalk(start=center), dwell=1e12, start=center, rng=rng
    )
    system.run_to_quiescence()
    assert system.path_is_intact()

    # Kill the VSA hosting the evader's level-1 cluster process.
    level1_head = hierarchy.head(hierarchy.cluster(center, 1))
    system.kill_region(level1_head)
    system.run_to_quiescence()
    broken = not system.path_is_intact()
    failures = sum(host.fail_count for host in system.network.hosts.values())

    system.revive_region(level1_head)
    system.run(t_restart * 2)
    restarts = sum(host.restart_count for host in system.network.hosts.values())

    recovery_moves = 0
    recovered = system.path_is_intact()
    while not recovered and recovery_moves < max_recovery_moves:
        evader.step()
        system.run_to_quiescence()
        recovery_moves += 1
        recovered = system.path_is_intact()

    return EmulationResult(
        vsa_failures=failures,
        vsa_restarts=restarts,
        path_broken_after_kill=broken,
        path_recovered=recovered,
        recovery_moves=recovery_moves,
    )


# ----------------------------------------------------------------------
# E5: model equivalence (Theorem 4.8)
# ----------------------------------------------------------------------
def run_equivalence_check(
    r: int,
    max_level: int,
    n_moves: int,
    seed: int = 0,
    mid_flight_probes: int = 3,
) -> Tuple[int, int]:
    """Check lookAhead == atomicMoveSeq over a random execution.

    Probes the equation at ``mid_flight_probes`` random interruption
    points per move and at every settled point; returns
    ``(states_checked, mismatches)``.
    """
    from ..core.atomic_model import atomic_move_seq
    from ..core.consistency import check_consistent
    from ..core.lookahead import look_ahead
    from ..core.state import capture_snapshot

    scenario = build(ScenarioConfig(r=r, max_level=max_level, seed=seed))
    system, hierarchy = scenario.system, scenario.hierarchy
    rng = random.Random(seed)
    start = hierarchy.tiling.regions()[len(hierarchy.tiling.regions()) // 2]
    evader = system.make_evader(
        RandomNeighborWalk(start=start), dwell=1e12, start=start, rng=rng
    )
    system.run_to_quiescence()
    seq = [start]
    checked = mismatches = 0
    for _ in range(n_moves):
        evader.step()
        seq.append(evader.region)
        want = atomic_move_seq(hierarchy, seq).pointer_map()
        for _probe in range(mid_flight_probes):
            system.run(rng.uniform(0.0, 10.0))
            snapshot = capture_snapshot(system)
            checked += 1
            if look_ahead(snapshot, hierarchy).pointer_map() != want:
                mismatches += 1
        system.run_to_quiescence()
        snapshot = capture_snapshot(system)
        checked += 1
        if snapshot.pointer_map() != want:
            mismatches += 1
        if check_consistent(snapshot, hierarchy, evader.region):
            mismatches += 1
    return checked, mismatches


# ----------------------------------------------------------------------
# SVC: multi-object service scaling (DESIGN.md §9)
# ----------------------------------------------------------------------
@dataclass
class ServiceScaleRow:
    """One M×K cell of the service scaling table."""

    objects: int
    clients: int
    finds: int
    shards: int
    completion_rate: float
    p50: float
    p95: float
    p99: float
    throughput: float
    deadline_miss_rate: float
    handovers: int
    fingerprint_match: bool


def run_service_mk(
    cells: List[Tuple[int, int, int]],
    r: int = 2,
    max_level: int = 2,
    seed: int = 7,
    shards: int = 2,
    arrival: str = "poisson",
    rate: float = 2.0,
    deadline: float = 60.0,
    moves_per_object: int = 2,
) -> List[ServiceScaleRow]:
    """The M×K service scaling sweep, one row per ``(M, K, finds)`` cell.

    Protocol-driven: each cell is one :class:`~repro.service.LoadGenerator`
    workload (an ``events(seed)`` stream) admitted through
    :class:`~repro.service.TrackingService` on **both** engines — the
    plain single loop and the K-sharded PDES core — so every row also
    re-checks service-level K-invariance (``fingerprint_match``).
    Metrics are read from the plain engine; the gate guarantees the
    sharded engine reports the same sim-time values.
    """
    from ..service import LoadGenerator, TrackingService
    from ..sim.sharded.core import _tiling_for

    rows: List[ServiceScaleRow] = []
    for n_objects, n_clients, n_finds in cells:
        config = ScenarioConfig(
            r=r,
            max_level=max_level,
            seed=seed,
            shards=shards,
            n_objects=n_objects,
            find_clients=n_clients,
        )
        load = LoadGenerator(
            tiling=_tiling_for(config),
            n_objects=n_objects,
            n_finds=n_finds,
            find_clients=n_clients,
            arrival=arrival,
            rate=rate,
            moves_per_object=moves_per_object,
            deadline=deadline,
        )
        plain = TrackingService(config, engine="plain").run(load)
        sharded = TrackingService(config, engine="sharded").run(load)
        metrics = plain.metrics
        latency = metrics["latency"]
        rows.append(ServiceScaleRow(
            objects=n_objects,
            clients=n_clients,
            finds=metrics["finds_issued"],
            shards=sharded.shards,
            completion_rate=metrics["completion_rate"],
            p50=latency["p50"] or 0.0,
            p95=latency["p95"] or 0.0,
            p99=latency["p99"] or 0.0,
            throughput=metrics["throughput_per_time"],
            deadline_miss_rate=metrics["deadline_miss_rate"] or 0.0,
            handovers=metrics["handovers_total"],
            fingerprint_match=(
                plain.canonical_fingerprint == sharded.canonical_fingerprint
            ),
        ))
    return rows


# ----------------------------------------------------------------------
# Scale probe (benchmarks/bench_scale.py)
# ----------------------------------------------------------------------
def run_scale_probe(
    max_level: int,
    r: int = 2,
    n_moves: int = 10,
    seed: int = 5,
) -> Dict[str, object]:
    """Build a large world, drive a short walk and one cross-world find.

    Measures world build time, amortized per-move work and the cost of a
    find launched from the far corner; the scalability benchmark and
    the ``paper-sweep`` workload of ``benchmarks/perf`` both call this.
    """
    start_build = time.perf_counter()
    scenario = build(ScenarioConfig(r=r, max_level=max_level, seed=seed))
    build_seconds = time.perf_counter() - start_build
    system, accountant = scenario.parts()
    hierarchy = scenario.hierarchy
    regions = hierarchy.tiling.regions()
    center = regions[len(regions) // 2]
    evader = system.make_evader(
        RandomNeighborWalk(start=center),
        dwell=1e12,
        start=center,
        rng=random.Random(seed),
    )
    system.run_to_quiescence()
    mark = accountant.epoch()
    for _ in range(n_moves):
        evader.step()
        system.run_to_quiescence()
    move_work = accountant.delta_since(mark).move_work / max(1, n_moves)
    find_id = system.issue_find(regions[0])
    system.run_to_quiescence()
    record = system.finds.records[find_id]
    return {
        "D": hierarchy.tiling.diameter(),
        "trackers": len(system.trackers),
        "build_s": build_seconds,
        "move_work": move_work,
        "find_work": record.work,
        "find_ok": record.completed,
    }
