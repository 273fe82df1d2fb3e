"""Experiment runners: the simulations behind every EXPERIMENTS.md table.

Each runner builds a fresh world, drives it and returns a small result
record; the experiment registry (:mod:`repro.analysis.reporting`) calls
them, renders what they return and checks it.  All runners are
deterministic for a fixed seed.  Most drive *interactively* — step the
evader, run to quiescence, sample an accountant epoch, repeat — because
they measure between moves (per-move work, settle times, mid-flight
probes); a pure timed event stream goes through the workload protocol
instead (:mod:`repro.workload`, as :func:`run_service_mk` does), which
runs bit-identically on the plain and the sharded engine.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from .. import obs
from ..core.consistency import check_consistent
from ..core.path import check_tracking_path
from ..core.state import capture_snapshot
from ..core.vinestalk import VineStalk
from ..mobility.models import (
    BoundaryOscillator,
    FixedPath,
    RandomNeighborWalk,
    worst_boundary_pair,
)
from ..mobility.speed import concurrent_dwell
from ..obs.events import FindQueryIssued
from ..scenario import ScenarioConfig, build
from ..topo import topology_cache
from .bounds import (
    find_work_bound,
    move_work_bound_per_distance,
    search_level_for_distance,
)


def _settled_walker(system, rng=None, start=None, dwell: float = 1e12):
    """Enter a random-neighbor walker at ``start`` (default: the middle
    region) and run its entry to quiescence; ``rng`` draws the walk."""
    if start is None:
        regions = system.hierarchy.tiling.regions()
        start = regions[len(regions) // 2]
    evader = system.make_evader(
        RandomNeighborWalk(start=start), dwell=dwell, start=start, rng=rng
    )
    system.run_to_quiescence()
    return evader


def _walk(system, evader, n_moves: int) -> None:
    """``n_moves`` atomic moves: step, then run to quiescence."""
    for _ in range(n_moves):
        evader.step()
        system.run_to_quiescence()


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
    schedule=None,
) -> MoveCostResult:
    """Random neighbor walk with atomic (settled) moves; measures move work.

    ``schedule`` overrides the corollary's geometric timer schedule (the
    E1 ablation passes the flat Eq. (1)-safe one).
    """
    system, accountant = build(
        ScenarioConfig(r=r, max_level=max_level, schedule=schedule)
    ).parts()
    hierarchy = system.hierarchy
    evader = _settled_walker(system, random.Random(seed))
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


def run_find_sweep(
    r: int,
    max_level: int,
    distances: List[int],
    seed: int = 0,
    finds_per_distance: int = 3,
) -> List[FindCostResult]:
    """Finds at a sweep of distances from a settled evader at the center."""
    system = build(ScenarioConfig(r=r, max_level=max_level)).system
    center = _settled_walker(system).region
    rng = random.Random(seed)

    results: List[FindCostResult] = []
    for distance in distances:
        for _ in range(finds_per_distance):
            result = run_find_at_distance(system, center, distance, rng)
            if result is not None:
                results.append(result)
    return results


def mean_find_work_by_distance(
    results: List[FindCostResult], field: str = "work"
) -> List[Tuple[int, float]]:
    """Aggregate a find sweep into (distance, mean work) pairs.

    ``field="latency"`` averages the finds' latency instead.
    """
    groups: Dict[int, List[float]] = {}
    for result in results:
        groups.setdefault(result.distance, []).append(getattr(result, field))
    return [(d, sum(v) / len(v)) for d, v in sorted(groups.items())]


def analytic_find_work(side: int, distances: List[int]):
    """``(d, flooding work, home-agent work)`` per distance, for finds from
    the center of a ``side``×``side`` grid: the two §I cost models an
    E2 sweep is set against."""
    from ..geometry import GridTiling
    from .crossbase import ANALYTIC_TRACKERS

    tiling = GridTiling(side)
    center = (side // 2, side // 2)
    rows = []
    for d in distances:
        target = (min(center[0] + d, side - 1), center[1])
        row = [d]
        for key in ("flooding", "home-agent"):
            model = ANALYTIC_TRACKERS[key](tiling)
            model.enter(target)
            row.append(model.find(center).work)
        rows.append(tuple(row))
    return rows


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


def run_dithering(r: int, max_level: int, oscillations: int) -> DitheringResult:
    """Boundary oscillation: VINESTALK vs the no-lateral baseline."""
    totals = {}
    for label, system_key in (("with", "vinestalk"), ("without", "no-lateral")):
        system, accountant = build(
            ScenarioConfig(r=r, max_level=max_level, system=system_key)
        ).parts()
        a, b = worst_boundary_pair(system.hierarchy)
        evader = system.make_evader(
            BoundaryOscillator(a, b), dwell=1e12, start=a
        )
        system.run_to_quiescence()
        baseline = accountant.epoch()
        _walk(system, evader, oscillations)
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
    #: Lemma 4.1/4.2 violations, counted in full (the sampler keeps only
    #: the first few records).  Theorem 4.8 is E5's claim, not E3's.
    violations: int


def run_invariant_watch(
    r: int,
    max_level: int,
    n_moves: int,
    seed: int = 0,
) -> InvariantResult:
    """Random walk with the conformance sampler checking every event.

    Lemma 4.2 reads the typed ``GrowSent`` events, so the walk runs
    under its own obs collector.
    """
    system = build(ScenarioConfig(r=r, max_level=max_level)).system
    corner = system.hierarchy.tiling.regions()[0]
    evader = system.make_evader(
        RandomNeighborWalk(start=corner), dwell=1e12, start=corner,
        rng=random.Random(seed),
    )
    with obs.observed():
        sampler = obs.ConformanceSampler(system, stride=1).attach()
        try:
            system.run_to_quiescence()
            _walk(system, evader, n_moves)
        finally:
            sampler.detach()  # never leak a hook across sweep jobs
    return InvariantResult(
        moves=n_moves,
        max_grow_outstanding=sampler.max_grow_outstanding,
        max_shrink_outstanding=sampler.max_shrink_outstanding,
        lateral_sends=sampler.checks_run["lemma-4.2"],
        violations=sampler.total_violations()
        - sampler.violation_counts["theorem-4.8"],
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


def run_baseline_comparison(
    r: int,
    max_level: int,
    n_moves: int,
    n_finds: int,
    find_distance: int,
    seed: int = 0,
) -> List[ComparisonRow]:
    """Same workload across VINESTALK, home-agent, flooding and A–P.

    The workload: ``n_moves`` random-walk steps, with ``n_finds`` finds
    issued from regions at ``find_distance`` spread across the run.

    The evader roams a corner of the world while the home-agent
    rendezvous sits at the center — fixed rendezvous services cannot
    co-locate with activity, which is exactly the non-locality the
    locality-aware services are designed to avoid.
    """
    from .crossbase import ANALYTIC_TRACKERS

    config = ScenarioConfig(r=r, max_level=max_level)
    system, accountant = build(config).parts()
    tiling = system.hierarchy.tiling
    evader = _settled_walker(
        system, random.Random(seed), start=tiling.regions()[0]
    )
    # The analytic cost models replay the message-level run's trajectory
    # and find origins as it goes.
    models = {key: ANALYTIC_TRACKERS[key](tiling, delta=config.delta)
              for key in ("home-agent", "awerbuch-peleg", "flooding")}
    for model in models.values():
        model.enter(evader.region)
    rng = random.Random(seed)
    base = accountant.epoch()
    find_every = max(1, n_moves // max(1, n_finds))
    finds_done = 0
    for step in range(n_moves):
        _walk(system, evader, 1)
        for model in models.values():
            model.move(evader.region)
        if step % find_every == 0 and finds_done < n_finds:
            finds_done += 1
            candidates = topology_cache().regions_at_distance(
                tiling, evader.region, find_distance
            )
            if candidates:
                origin = rng.choice(candidates)
                system.issue_find(origin)
                system.run_to_quiescence()
                for model in models.values():
                    model.find(origin)
    used = accountant.epoch().minus(base)
    return [ComparisonRow("vinestalk", used.move_work, used.find_work)] + [
        ComparisonRow(key, model.total_move_work, model.total_find_work)
        for key, model in models.items()
    ]


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
) -> ConcurrentResult:
    """Moves with the §VI speed restriction, finds issued mid-flight.

    Measures find success/latency, move work versus the identical
    trajectory executed atomically, and the search-level overshoot of
    each find relative to the atomic-case minimum level.
    """
    # --- concurrent execution ------------------------------------------
    config = ScenarioConfig(r=r, max_level=max_level)
    system, accountant = build(config).parts()
    tiling = system.hierarchy.tiling
    params = system.hierarchy.params
    dwell = concurrent_dwell(system.schedule, params, system.delta, system.e)
    rng = random.Random(seed)
    evader = _settled_walker(system, random.Random(seed), dwell=dwell)
    base = accountant.epoch()

    # Per-find max query level, from the typed FindQueryIssued events.
    max_query_level: Dict[int, int] = {}

    def watch_queries(event) -> None:
        if type(event) is FindQueryIssued:
            find_id = event.find_id
            max_query_level[find_id] = max(
                max_query_level.get(find_id, 0), event.level
            )

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
    with obs.observed() as collector:
        collector.subscribe(watch_queries)
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
    atomic_evader = _settled_walker(atomic_system, random.Random(seed))
    atomic_base = atomic_acc.epoch()
    _walk(atomic_system, atomic_evader, trajectory_moves)
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
) -> EmulationResult:
    """Kill a VSA on the tracking path, revive it, walk until recovery.

    Measures the §II-C.2 lifecycle (fail on empty region, restart after
    ``t_restart``) and how many evader moves (at most 60) rebuild the
    structure.
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
    evader = _settled_walker(system, random.Random(seed))
    assert system.path_is_intact()

    # Kill the VSA hosting the evader's level-1 cluster process.
    level1_head = hierarchy.head(hierarchy.cluster(evader.region, 1))
    system.kill_region(level1_head)
    system.run_to_quiescence()
    broken = not system.path_is_intact()
    failures = sum(host.fail_count for host in system.network.hosts.built.values())

    system.revive_region(level1_head)
    system.run(t_restart * 2)
    restarts = sum(host.restart_count for host in system.network.hosts.built.values())

    recovery_moves = 0
    recovered = system.path_is_intact()
    while not recovered and recovery_moves < 60:
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
) -> Tuple[int, int]:
    """Check lookAhead == atomicMoveSeq over a random execution.

    Probes the equation at three random interruption points per move
    and at every settled point; returns ``(states_checked, mismatches)``.
    """
    from ..core.atomic_model import atomic_move_seq
    from ..core.lookahead import look_ahead

    scenario = build(ScenarioConfig(r=r, max_level=max_level, seed=seed))
    system, hierarchy = scenario.system, scenario.hierarchy
    rng = random.Random(seed)  # one stream: the walk and the probe times
    evader = _settled_walker(system, rng)
    seq = [evader.region]
    checked = mismatches = 0
    for _ in range(n_moves):
        evader.step()
        seq.append(evader.region)
        want = atomic_move_seq(hierarchy, seq).pointer_map()
        for _probe in range(3):
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
# E7: secondary-pointer coverage (Theorem 5.1)
# ----------------------------------------------------------------------
def run_coverage_audit(
    r: int, max_level: int, n_moves: int, seed: int = 0
) -> Tuple[int, List[str]]:
    """Audit Theorem 5.1 on the settled state after an ``n_moves`` walk.

    Every region within q(l) of the evader must have its level-l cluster
    or a neighbor of it on the tracking path or holding a secondary
    pointer.  Returns ``(region × level pairs audited, problems)``.
    """
    system = build(ScenarioConfig(r=r, max_level=max_level)).system
    hierarchy = system.hierarchy
    evader = _settled_walker(system, random.Random(seed))
    _walk(system, evader, n_moves)
    snapshot = capture_snapshot(system)
    path, problems = check_tracking_path(snapshot, hierarchy, evader.region)
    on_path = set(path or ())

    def has_handle(cluster) -> bool:
        pointers = snapshot.pointers[cluster]
        return (cluster in on_path or pointers.nbrptup is not None
                or pointers.nbrptdown is not None)

    audited = 0
    for region in hierarchy.tiling.regions():
        distance = hierarchy.tiling.distance(region, evader.region)
        for level in range(hierarchy.max_level + 1):
            if distance <= hierarchy.params.q(level):
                audited += 1
                cluster = hierarchy.cluster(region, level)
                if not any(map(has_handle, [cluster] + hierarchy.nbrs(cluster))):
                    problems.append(f"region {region} level {level}: no handle")
    return audited, problems


# ----------------------------------------------------------------------
# X1–X4: the §VII extensions, all on the r=3, MAX=2 grid (center (4, 4))
# ----------------------------------------------------------------------
def run_corruption_storm(severity: int, seed: int) -> float:
    """Time for a stabilizing world to reconverge after ``severity`` random
    pointer corruptions under a static evader; ``inf`` if it never does."""
    from ..stabilization import StabilizationConfig

    stabilization = StabilizationConfig(period_base=20.0, scale=2.0, miss_limit=3)
    system = build(ScenarioConfig(
        r=3, max_level=2, system="stabilizing", stabilization=stabilization
    )).system
    system.make_evader(FixedPath([(4, 4)]), dwell=1e12, start=(4, 4))
    system.start_anchor_refresh()
    system.run(stabilization.period(0) * 5)
    system.corrupt(random.Random(seed), severity)
    elapsed = system.time_to_converge(max_time=5000.0, probe=7.0)
    return float("inf") if elapsed is None else elapsed


def run_replication_overhead(m: int, n_moves: int, seed: int) -> Tuple[float, float]:
    """``(base work, sync work)`` of a walk with ``m`` head slots per cluster."""
    system = build(ScenarioConfig(
        r=3, max_level=2, system="replicated", replication_factor=m
    )).system
    _walk(system, _settled_walker(system, random.Random(seed)), n_moves)
    return system.cgcast.total_cost, system.sync_work


def run_replication_survival(m: int) -> float:
    """Fraction of single-region VSA failures after which a find completes.

    Fails every fourth region in turn under a static evader — except the
    evader's own, which no replication covers — and queries from a corner
    whose level-0 VSA is alive.
    """
    config = ScenarioConfig(
        r=3, max_level=2, system="replicated", replication_factor=m
    )
    outcomes = []
    for region in build(config).hierarchy.tiling.regions()[::4]:
        if region == (4, 4):
            continue
        system = build(config).system
        system.make_evader(FixedPath([(4, 4)]), dwell=1e12, start=(4, 4))
        system.run_to_quiescence()
        system.network.hosts[region].fail()
        find_id = system.issue_find((0, 0) if region != (0, 0) else (8, 0))
        system.run_to_quiescence()
        outcomes.append(system.finds.records[find_id].completed)
    return sum(outcomes) / len(outcomes)


def run_pursuit(seed: int, coordinated: bool):
    """One pursuit game on 16×16: 3 cornered pursuers, 3 spread evaders."""
    from ..coordination import PursuitGame

    return PursuitGame(
        topology_cache().grid(2, 4), coordinated=coordinated, seed=seed,
        n_evaders=3, n_pursuers=3, evader_dwell=50.0, pursuer_speed=2,
        evader_starts=[(2, 13), (13, 13), (13, 2)],
        pursuer_starts=[(0, 0), (1, 0), (0, 1)],
    ).play(max_rounds=80, round_period=50.0)


def run_speed_violation(
    dwell_factor: float, seed: int, burst_moves: int, budget: int
) -> Tuple[bool, Optional[int]]:
    """A burst of moves at ``dwell_factor`` × the atomic dwell, then recovery.

    Returns ``(consistent after the burst, lawful moves until a
    cross-world find lands on the evader)``; the count is ``None`` when
    ``budget`` moves did not restore a usable structure.
    """
    system = build(ScenarioConfig(r=3, max_level=2, seed=seed)).system
    dwell = max(0.5, dwell_factor * system.settle_time())
    evader = _settled_walker(system, random.Random(seed), dwell=dwell)
    evader.start()
    system.run(burst_moves * dwell)
    evader.stop()
    system.run_to_quiescence()
    consistent = not check_consistent(
        capture_snapshot(system), system.hierarchy, evader.region
    )
    for moves in range(budget + 1):
        find_id = system.issue_find((0, 0))
        system.run_to_quiescence()
        record = system.finds.records[find_id]
        if record.completed and record.found_region == evader.region:
            return consistent, moves
        _walk(system, evader, 1)
    return consistent, None


# ----------------------------------------------------------------------
# SVC: multi-object service scaling (DESIGN.md §9)
# ----------------------------------------------------------------------
def run_service_mk(
    cells: List[Tuple[int, int, int]],
) -> List[Tuple[int, int, Dict[str, Any], bool]]:
    """The M×K service scaling sweep, one row per ``(M, K, finds)`` cell.

    Protocol-driven: each cell is one :class:`~repro.service.LoadGenerator`
    workload put through :func:`~repro.service.cross_check` — the plain
    single loop and the 2-shard PDES core on one script.  A row is
    ``(M, K, the plain engine's service metrics, the verdict)``; a match
    means the sharded engine reports the same sim-time metrics.
    """
    from ..service import LoadGenerator, cross_check
    from ..sim.sharded.core import _tiling_for

    rows = []
    for n_objects, n_clients, n_finds in cells:
        config = ScenarioConfig(
            r=2, max_level=2, seed=7, shards=2,
            n_objects=n_objects, find_clients=n_clients,
        )
        load = LoadGenerator(
            tiling=_tiling_for(config), n_objects=n_objects, n_finds=n_finds,
            find_clients=n_clients, arrival="poisson", rate=2.0,
            moves_per_object=2, deadline=60.0,
        )
        plain, _, match = cross_check(config, load)
        rows.append((n_objects, n_clients, plain.metrics, match))
    return rows


# ----------------------------------------------------------------------
# Scale probe
# ----------------------------------------------------------------------
def run_scale_probe(
    max_level: int,
    r: int = 2,
    n_moves: int = 10,
    seed: int = 5,
) -> Dict[str, object]:
    """Build a large world, drive a short walk and one cross-world find.

    Measures world build time, amortized per-move work and the cost of a
    find launched from the far corner; the E1 scale table and the
    ``paper-sweep`` workload of ``benchmarks/perf`` both call this.
    """
    start_build = time.perf_counter()
    scenario = build(ScenarioConfig(r=r, max_level=max_level, seed=seed))
    build_seconds = time.perf_counter() - start_build
    system, accountant = scenario.parts()
    hierarchy = scenario.hierarchy
    regions = hierarchy.tiling.regions()
    evader = _settled_walker(system, random.Random(seed))
    mark = accountant.epoch()
    _walk(system, evader, n_moves)
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
