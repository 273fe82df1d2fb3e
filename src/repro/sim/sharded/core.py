"""The conservative time-windowed sharded PDES driver.

:class:`ShardedSimulator` advances K shard replicas through adaptive
δ-width windows:

1. compute the next barrier ``b = min(next pending event across all
   shards and in-flight injections) + δ`` — adaptive, so idle stretches
   are skipped in one hop;
2. step every shard to ``b`` (events strictly before the barrier);
3. forward each shard's batch of boundary-crossing rows, unopened, to
   its destination shard, which decodes them, sorts them into the
   canonical ``(deliver_time, src_shard, seq)`` order and injects them.

**Safety** (no causality violation): every C-gcast delay is at
least δ (the §II-C.3 table bottoms out at the client→cluster rule (e)
delay δ; fault rules only add delay or drop copies).  An event firing
at ``s ∈ [min, b)`` therefore cannot produce a cross-shard delivery
before ``s + δ ≥ min + δ = b`` — i.e. nothing sent inside a window is
deliverable inside it, so exchanging only at barriers loses nothing.
The δ-lookahead property test pins this empirically.

**Determinism**: shard replicas are pure functions of ``(config,
plan, shard_id, workload)``; the receiving shard fixes the injection
order from delivery times and sender-side dispatch sequence numbers
rather than worker completion order — so the N-shard fingerprint is a
pure function of the seed, independent of scheduling, and identical
between the serial and process backends.

Backends: ``serial`` steps the shard contexts in-process (the
reference semantics, and the honest fallback on 1-core boxes);
``processes`` runs each shard in a forked worker and overlaps their
window computation — the throughput path measured by the
``sharded-k2`` workload of ``benchmarks/perf`` against its serial twin
``service-m2k``.

:func:`run_script` is the one place a script is run — on the plain loop
or on either backend — and every path ends in the one :func:`_merge`
and returns the one :class:`RunRecord`.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from itertools import chain, compress, islice
from operator import eq
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ...energy.ledger import merge_energy
from ...topo import topology_cache
from ...workload import ScriptedWorkload, check_world
from ..engine import gc_paused
from .context import GroupDigest, ShardContext, ShardedRunError, sort_groups
from .plan import ShardPlan, strip_plan

BACKENDS = ("serial", "processes")


@dataclass(frozen=True)
class RunRecord:
    """What one run of a script did, on whichever engine (picklable).

    Work totals are exact sums over shards (each dispatch happens in
    exactly one shard); crash/blackout/GPS fault counters come from
    shard 0 (those event streams fire identically in every replica),
    while message-perturbation counters are summed.  A plain run is the
    one-shard case with no windows and hence no barrier wait.
    """

    shards: int
    #: ``"plain"``, ``"serial"`` or ``"processes"``.
    backend: str
    windows: int
    events: int
    messages_sent: int
    total_cost: float
    move_work: float
    find_work: float
    other_work: float
    moves_observed: int
    cross_shard_messages: int
    canonical_fingerprint: str
    #: Dispatch-order CRC; only a single world has one order (K=1).
    exact_fingerprint: Optional[str]
    #: Engine clock at quiescence: the last event's time on the plain
    #: loop, the last barrier (up to δ later) on a windowed run.
    now: float
    wall_s: float
    #: Host seconds the shards spent inside windows.
    busy_s: float
    barrier_wait_s: float
    #: ``busy_s`` per shard.
    shard_busy_s: Tuple[float, ...]
    #: Sum over windows of the slowest shard's window: minus
    #: ``max(shard_busy_s)``, the cost of load imbalance.
    critical_path_s: float
    fault_events: Optional[Dict[str, int]]
    #: find_id -> merged per-find record (origin repr, object_id,
    #: issued_at, deadline, completed, latency, work, deadline_missed).
    finds: Dict[int, dict]
    #: object_id -> cluster-originated Grow dispatches (handover count).
    handovers: Dict[int, int]
    #: Merged ``energy/1`` ledger payload (None without an energy model).
    energy: Optional[Dict[str, Any]]
    #: Merged pre-configuration counters (predictive systems only).
    preconfig: Optional[Dict[str, int]]
    #: The :func:`~repro.service.metrics.service_metrics` block, attached
    #: by :class:`~repro.service.service.TrackingService`.
    metrics: Dict[str, Any] = field(default_factory=dict)

    @property
    def finds_issued(self) -> int:
        return len(self.finds)

    @property
    def finds_completed(self) -> int:
        return sum(1 for f in self.finds.values() if f["completed"])

    @property
    def work(self) -> Dict[str, float]:
        """Message work in the accountant's buckets."""
        return {
            "move": self.move_work,
            "find": self.find_work,
            "other": self.other_work,
            "total": self.total_cost,
        }


def canonical_fingerprint(digests: Sequence[GroupDigest]) -> str:
    """``crc32("\\n".join(sorted(lines)).encode())`` of every shard's lines.

    As 8 hex digits, from one :class:`GroupDigest` per shard: the groups
    in key order, each appended by ``crc(A + B) = ~crc32(0ⁿ, ~crc(A)) ^
    crc(B)``, ``n = len(B)``.  A key found twice — in two shards, or
    reopened in one — raises :class:`ShardedRunError`.
    """
    keys, crcs, sizes = sort_groups(
        chain.from_iterable(d.keys for d in digests),
        chain.from_iterable(d.crcs for d in digests),
        chain.from_iterable(d.sizes for d in digests),
    )
    # The first key equal to the next one, if any.
    twice = next(compress(keys, map(eq, keys, islice(keys, 1, None))), None)
    if twice is not None:
        shards = [shard for shard, d in enumerate(digests) for k in d.keys if k == twice]
        where = (f"reopened in shard {shards[0]}" if shards[0] == shards[1]
                 else f"found in shards {shards[0]} and {shards[1]}")
        raise ShardedRunError(f"send group {twice!r} {where}")
    zeros = memoryview(bytes(max(sizes, default=0)))
    groups = zip(crcs, sizes)
    crc = next(groups, (0,))[0]
    for group_crc, size in groups:
        crc = zlib.crc32(zeros[:size], zlib.crc32(b"\n", crc) ^ 0xFFFFFFFF)
        crc ^= 0xFFFFFFFF ^ group_crc
    return f"{crc:08x}"


class ShardedSimulator:
    """Drive one scripted scenario across K region shards.

    Args:
        config: Scenario config; ``config.shards`` fixes K (clamped to
            the region count by the strip partitioner).
        workload: The scripted drive (see :mod:`repro.workload`).
        backend: ``"serial"`` or ``"processes"``; single-shard plans
            always run serially.
        max_windows: Runaway guard on the barrier loop.
    """

    def __init__(
        self,
        config,
        workload: ScriptedWorkload,
        backend: str = "serial",
        max_windows: int = 2_000_000,
    ) -> None:
        if backend not in BACKENDS:
            raise ValueError(f"backend must be one of {BACKENDS}")
        if config.shards > 1 and config.delta <= 0:
            raise ValueError("sharded execution requires delta > 0 lookahead")
        self.config = config
        self.workload = workload
        tiling = _tiling_for(config)
        self.plan: ShardPlan = strip_plan(tiling, config.shards)
        self.backend = backend if self.plan.k > 1 else "serial"
        self.max_windows = max_windows
        if self.backend == "processes":
            # A worker's refusal would surface as a ShardedRunError: the
            # parent refuses what every replica would, before forking.
            check_world(workload, tiling)

    def run(self) -> RunRecord:
        """Run the workload to quiescence and merge the shard reports,
        in one GC pause (DESIGN.md §9.5), not one per window's loop."""
        k = self.plan.k
        delta = self.config.delta
        wall0 = perf_counter()
        cross = windows = 0
        critical = 0.0
        with gc_paused():
            transport = self._make_transport()
            try:
                next_times = transport.start()
                # Per destination shard, the batches bound for it in
                # sending-shard order, and the earliest row of each batch.
                inboxes: List[list] = [[] for _ in range(k)]
                due: List[float] = []
                while True:
                    candidates = [t for t in next_times if t is not None] + due
                    if not candidates:
                        break
                    if windows >= self.max_windows:
                        raise ShardedRunError(f"exceeded max_windows={self.max_windows}")
                    barrier = min(candidates) + delta
                    replies = transport.step_all(barrier, inboxes)
                    windows += 1
                    inboxes = [[] for _ in range(k)]
                    due = []
                    for outbox, _, _ in replies:
                        for dest, (earliest, count, batch) in outbox.items():
                            inboxes[dest].append(batch)
                            due.append(earliest)
                            cross += count
                    next_times = [reply[1] for reply in replies]
                    critical += max(reply[2] for reply in replies)
                reports = transport.finish()
            finally:
                transport.close()
        wall = perf_counter() - wall0
        return _merge(reports, self.plan.k, self.backend, windows, cross, wall, critical)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _make_transport(self):
        if self.backend == "processes":
            from .worker import ProcessTransport

            return ProcessTransport(self.config, self.plan, self.workload)
        return SerialTransport(self.config, self.plan, self.workload)


class SerialTransport:
    """In-process backend: shard contexts stepped round-robin."""

    def __init__(self, config, plan: ShardPlan, workload: ScriptedWorkload) -> None:
        self.contexts = [
            ShardContext(config, plan, shard, workload)
            for shard in range(plan.k)
        ]

    def start(self) -> List[Optional[float]]:
        return [ctx.sim.next_event_time() for ctx in self.contexts]

    def step_all(self, barrier: float, inboxes: List[list]) -> List[tuple]:
        """Each shard's :meth:`ShardContext.step` reply; rows travel as lists."""
        return [ctx.step(barrier, inbox) for ctx, inbox in zip(self.contexts, inboxes)]

    def finish(self) -> List[dict]:
        return [ctx.report() for ctx in self.contexts]

    def close(self) -> None:
        pass


def _tiling_for(config) -> Any:
    """The region tiling ``config`` describes, without building a world."""
    if config.hierarchy is not None:
        return config.hierarchy.tiling
    return topology_cache().grid(config.r, config.max_level).tiling


def _merge(
    reports: List[dict],
    k: int,
    backend: str,
    windows: int,
    cross: int,
    wall: float,
    critical: float = 0.0,
) -> RunRecord:
    """Fold the per-shard reports of one run into its :class:`RunRecord`."""
    finds: Dict[int, dict] = {}
    for report in reports:
        for find_id, info in report["finds"].items():
            # Every shard carries a record (the `found` output fires
            # at the evader's region, which any shard may own):
            # completion/latency come from the shard that saw the
            # output, per-find work sums over shards.
            merged = finds.get(find_id)
            if merged is None:
                finds[find_id] = dict(info)
            else:
                merged["work"] += info["work"]
                if info["completed"]:
                    # Clients in several regions (hence shards) may
                    # respond; the service answer is the earliest
                    # response anywhere — exactly what the plain
                    # engine's first-response-wins rule records.
                    if not merged["completed"]:
                        merged["completed"] = True
                        merged["latency"] = info["latency"]
                    elif info["latency"] < merged["latency"]:
                        merged["latency"] = info["latency"]
    # The one deadline-miss rule of every run record: a find with a
    # deadline that did not complete counts as missed, so the miss rate
    # cannot improve by dropping queries.
    for info in finds.values():
        deadline = info.get("deadline")
        info["deadline_missed"] = deadline is not None and (
            not info["completed"] or info["latency"] > deadline
        )
    handovers: Dict[int, int] = {}
    for report in reports:
        for oid, count in report["handovers"].items():
            handovers[oid] = handovers.get(oid, 0) + count
    energy = merge_energy(r["energy"] for r in reports)
    preconfig: Optional[Dict[str, int]] = None
    for report in reports:
        partial = report["preconfig"]
        if partial is None:
            continue
        if preconfig is None:
            preconfig = dict(partial)
        else:
            for key, value in partial.items():
                preconfig[key] = preconfig.get(key, 0) + value
    fault_events = None
    if reports[0]["fault_stats"] is not None:
        fault_events = dict(reports[0]["fault_stats"])
        for key in ("messages_dropped", "messages_duplicated", "messages_delayed"):
            fault_events[key] = sum(r["fault_stats"][key] for r in reports)
    busy = [r["busy_s"] for r in reports]
    total_busy = sum(busy)
    # Serial: everything outside shard windows is driver overhead.
    # Processes: windows overlap, so the wait is wall minus the
    # critical path (the busiest worker) — an honest lower bound.
    overlap = max(busy, default=0.0) if backend == "processes" else total_busy
    return RunRecord(
        shards=k,
        backend=backend,
        windows=windows,
        events=sum(r["events"] for r in reports),
        messages_sent=sum(r["messages_sent"] for r in reports),
        total_cost=sum(r["total_cost"] for r in reports),
        move_work=sum(r["move_work"] for r in reports),
        find_work=sum(r["find_work"] for r in reports),
        other_work=sum(r["other_work"] for r in reports),
        moves_observed=max(r["moves_observed"] for r in reports),
        cross_shard_messages=cross,
        canonical_fingerprint=canonical_fingerprint([r["digest"] for r in reports]),
        exact_fingerprint=(
            f"{reports[0]['exact_crc']:08x}" if k == 1 else None
        ),
        now=max(r["now"] for r in reports),
        wall_s=wall,
        busy_s=total_busy,
        # No windows, no barriers to wait at (the plain loop).
        barrier_wait_s=max(0.0, wall - overlap) if windows else 0.0,
        shard_busy_s=tuple(busy),
        critical_path_s=critical,
        fault_events=fault_events,
        finds=finds,
        handovers=handovers,
        energy=energy,
        preconfig=preconfig,
    )


def run_script(config, workload: ScriptedWorkload, backend: str = "plain") -> RunRecord:
    """Run ``workload`` to quiescence: the one place a script is run.

    ``backend`` is ``"plain"`` — the single event loop, whatever
    ``config.shards`` says — or one of :data:`BACKENDS` at
    ``config.shards`` shards.
    """
    if backend != "plain":
        return ShardedSimulator(config, workload, backend).run()
    config = config.with_(shards=1)
    wall0 = perf_counter()
    # A one-shard context installs no hooks; driving it with a plain
    # ``sim.run()`` is exactly the pre-sharding engine path.
    context = ShardContext(config, None, 0, workload)
    context.sim.run()
    reports = [context.report()]
    return _merge(reports, 1, "plain", 0, 0, perf_counter() - wall0)
