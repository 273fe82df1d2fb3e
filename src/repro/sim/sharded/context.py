"""One shard's world: a full replica executing only owned events.

Design: rather than splitting the object graph, every shard builds the
*complete* deterministic world from ``config`` (cheap — construction is
pure and topo-cached) and then executes only the events its regions
own.  All inter-automaton interaction in this codebase flows through
messages (the TIOA model), so non-owned replica state simply never
advances — it exists only so object references resolve.  Two hooks
enforce ownership:

* :attr:`CGcast.shard_router` — a dispatch whose destination region is
  foreign is outboxed instead of scheduled locally;
* :attr:`VineStalk.client_filter` — augmented-GPS move/left inputs
  reach only owned regions' clients (the evader itself is replicated
  state: every shard applies every scripted evader action).

Cross-shard messages travel as :class:`RemoteMessage` — plain picklable
data with the sender's dispatch sequence number, which gives the driver
a canonical ``(deliver_time, src_shard, seq)`` injection order
independent of worker scheduling.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from itertools import islice
from sys import intern
from time import perf_counter
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ...core.messages import Grow
from ...hierarchy.cluster import ClusterId
from .plan import ShardPlan
from .workload import ScriptedWorkload, schedule_workload


@dataclass(frozen=True)
class RemoteMessage:
    """One boundary-crossing C-gcast copy, as exchanged at barriers.

    Attributes:
        send_time: Dispatch time in the sending shard.
        deliver_time: Scheduled delivery time (>= send_time + δ by the
            conservative lookahead).
        src: Sender id (cluster, or region for a client sender).
        dest: Destination (cluster or ``("clients", region)``).
        payload: The message object (picklable).
        dest_shard: Shard owning the destination region.
        src_shard: Sending shard.
        seq: Sender-shard dispatch sequence — the canonical tiebreak.
    """

    send_time: float
    deliver_time: float
    src: Any
    dest: Any
    payload: Any
    dest_shard: int
    src_shard: int
    seq: int

    def sort_key(self) -> Tuple[float, int, int]:
        return (self.deliver_time, self.src_shard, self.seq)


def canonical_send_line(record) -> str:
    """One C-gcast send record as a canonical, order-independent string."""
    return (
        f"{record.time!r}|{record.src!r}|{record.dest!r}|"
        f"{record.payload!r}|{record.cost!r}|{record.delay!r}"
    )


def fold_crc(lines: Iterable[str], sep: str = "") -> int:
    """``crc32(sep.join(lines).encode())`` with one chunk of scratch memory.

    The separator also goes *between* the <= 4096-line chunks, so the
    value is byte for byte the one-shot CRC of the joined trace.
    """
    crc = 0
    lead = ""
    lines = iter(lines)
    while chunk := list(islice(lines, 4096)):
        crc = zlib.crc32((lead + sep.join(chunk)).encode(), crc)
        lead = sep
    return crc


class ShardContext:
    """A buildable, steppable shard replica.

    Args:
        config: The scenario config (its ``shards`` field is ignored
            here — the replica itself is always built single-shard).
        plan: The region → shard assignment.
        shard_id: This shard's id in ``plan``.
        workload: The scripted drive; evader actions are scheduled
            fully, finds only when owned.

    With ``plan.k == 1`` no hooks are installed and the full workload
    is scheduled — the replica is then *bit-identical* to the plain
    serial engine path, which the K=1 golden test pins.
    """

    def __init__(
        self,
        config,
        plan: ShardPlan,
        shard_id: int,
        workload: ScriptedWorkload,
    ) -> None:
        from ...scenario import build

        self.plan = plan
        self.shard_id = shard_id
        self.owned = plan.owned_set(shard_id)
        self.scenario = build(config.with_(shards=1))
        self.system = self.scenario.system
        if not getattr(self.system, "quiesces", True):
            raise ValueError(
                f"system {config.system!r} ({type(self.system).__name__}) "
                "never quiesces, and a script runs until the queue drains"
            )
        self.sim = self.system.sim
        self.outbox: List[RemoteMessage] = []
        self._seq = 0
        self.busy_s = 0.0
        self.send_lines: List[str] = []
        # Memoised piece of the canonical send line (_observe_send):
        # per (src, dest) ``(cost, delay, prefix, suffix)``.
        self._line_pairs: Dict[tuple, Tuple[float, float, str, str]] = {}
        # object_id -> cluster-originated Grow dispatches (handovers).
        # Each dispatch is observed in exactly one shard, so per-object
        # sums across shards are exact and K-invariant.
        self.handovers: Dict[int, int] = {}
        self.system.cgcast.observe(self._observe_send)
        sharded = plan.k > 1
        if sharded:
            self.system.cgcast.shard_router = self._route_cgcast
            if hasattr(self.system, "client_filter"):
                self.system.client_filter = self.owned.__contains__
        owns = self.owned.__contains__ if sharded else None
        schedule_workload(self.system, workload, owns=owns)

    # ------------------------------------------------------------------
    # Routing hooks
    # ------------------------------------------------------------------
    def _observe_send(self, records) -> None:
        """Fold a batch of sends into the fingerprints and handover counts.

        Each line is byte for byte :func:`canonical_send_line` of its
        record, assembled from memoised pieces: the sends of one event
        carry one time object, a tracker fans one payload object out to
        all its neighbors, and cost and delay are functions of (src,
        dest) — a record that deviates from the pair's cached cost or
        delay is formatted in full.  The time and payload memos live for
        one batch, whose records keep the memoised objects alive.
        """
        pairs = self._line_pairs
        handovers = self.handovers
        append = self.send_lines.append
        last_time = last_payload = pairs  # matches no time or payload
        time_repr = payload_repr = ""
        for record in records:
            time, src, dest, payload, cost, delay = record
            # Identity, not equality: 3 == 3.0 but they print differently.
            if time is not last_time:
                last_time = time
                time_repr = repr(time)
            if payload is not last_payload:
                last_payload = payload
                payload_repr = repr(payload)
            pair = pairs.get((src, dest))
            if pair is None:
                # Interned: a world has few distinct (cost, delay) suffixes.
                pair = pairs[(src, dest)] = (
                    cost, delay, f"|{src!r}|{dest!r}|", intern(f"|{cost!r}|{delay!r}"),
                )
            if pair[0] == cost and pair[1] == delay:
                append(f"{time_repr}{pair[2]}{payload_repr}{pair[3]}")
            else:
                append(canonical_send_line(record))
            if isinstance(payload, Grow) and isinstance(src, ClusterId):
                oid = getattr(payload, "object_id", 0)
                handovers[oid] = handovers.get(oid, 0) + 1

    def _route_cgcast(self, src, dest, dest_region, payload, deliver_time) -> bool:
        shard = self.plan.shard_of(dest_region)
        if shard == self.shard_id:
            return False
        self._seq += 1
        self.outbox.append(RemoteMessage(
            send_time=self.sim.now,
            deliver_time=deliver_time,
            src=src,
            dest=dest,
            payload=payload,
            dest_shard=shard,
            src_shard=self.shard_id,
            seq=self._seq,
        ))
        return True

    # ------------------------------------------------------------------
    # Stepping (driver interface)
    # ------------------------------------------------------------------
    def next_event_time(self) -> Optional[float]:
        return self.sim.next_event_time()

    def inject(self, message: RemoteMessage) -> None:
        """Schedule an incoming cross-shard message for local delivery."""
        self.sim.call_at(
            message.deliver_time,
            lambda m=message: self.system.cgcast.apply_remote(
                m.src, m.dest, m.payload
            ),
            tag="xshard:cgcast",
        )

    def run_window(self, barrier: float) -> int:
        """Run all local events strictly before ``barrier``."""
        t0 = perf_counter()
        fired = self.sim.run_window(barrier)
        self.busy_s += perf_counter() - t0
        return fired

    def drain_outbox(self) -> List[RemoteMessage]:
        out, self.outbox = self.outbox, []
        return out

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def exact_crc(self) -> int:
        """CRC of the send lines in dispatch order (order-sensitive)."""
        return fold_crc(self.send_lines)

    def report(self) -> dict:
        """Picklable end-of-run summary for the driver to merge."""
        accountant = self.scenario.accountant
        finds = {}
        for record in self.system.finds.records.values():
            finds[record.find_id] = {
                "origin": repr(record.origin),
                "object_id": record.object_id,
                "issued_at": record.issued_at,
                "deadline": record.deadline,
                "completed": record.completed,
                "latency": record.latency,
                "work": record.work,
            }
        stats = self.scenario.fault_stats
        ledger = self.scenario.energy_ledger
        preconfig = None
        summarize = getattr(self.system, "preconfig_summary", None)
        if summarize is not None:
            preconfig = summarize()
        return {
            "events": self.sim.events_fired,
            "busy_s": self.busy_s,
            "now": self.sim.now,
            "messages_sent": self.system.cgcast.messages_sent,
            "total_cost": self.system.cgcast.total_cost,
            "move_work": accountant.move_work if accountant else 0.0,
            "find_work": accountant.find_work if accountant else 0.0,
            "other_work": accountant.other_work if accountant else 0.0,
            "moves_observed": getattr(self.system, "moves_observed", 0),
            "exact_crc": self.exact_crc(),
            # Sorted here, in the worker: the driver then merges K runs.
            "send_lines": sorted(self.send_lines),
            "finds": finds,
            "handovers": dict(self.handovers),
            "fault_stats": stats.as_dict() if stats is not None else None,
            "energy": ledger.as_dict() if ledger is not None else None,
            "preconfig": preconfig,
        }
