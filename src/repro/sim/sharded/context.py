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

Every world, sharded or not, folds its C-gcast sends through one
:class:`SendFold` into the :func:`canonical_send_line` stream both
engines fingerprint; a replica also folds them into the
:class:`GroupDigest` its :meth:`ShardContext.report` ships.
"""

from __future__ import annotations

import zlib
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from itertools import repeat
from math import nan
from sys import intern
from time import perf_counter
from typing import Any, Dict, Iterable, List, NamedTuple, Optional, Tuple

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


class GroupDigest(NamedTuple):
    """Send lines as one CRC and byte length per group, sorted by key.

    A group is every line that starts with its key (see
    :class:`SendFold`), its lines sorted and joined with newlines.
    """

    keys: List[str]
    crcs: array
    sizes: array


class SendFold:
    """The C-gcast send stream of one world, folded as it is dispatched.

    :func:`repro.scenario.build` attaches one to every message-level
    system.  Each send becomes its :func:`canonical_send_line`, and the
    lines fold in dispatch order into ``crc`` — ``crc32`` of all of them
    joined, kept in O(1) — which is the send half of
    :func:`repro.ckpt.run_fingerprint` and of the bisect fold.  A
    cluster-originated ``Grow`` is a handover, counted per object.

    After :meth:`group` the fold also keeps a :class:`GroupDigest`, from
    which the sharded engine computes the K-invariant
    ``crc32("\\n".join(sorted(lines)))``.  A line is ``time|sender|rest``
    and neither part holds a ``|``, so the lines of a group — those
    starting with its key, no key a prefix of another — sort as one block,
    in key order.  A key is ``time|sender|``: one automaton dispatches
    that group, so one shard has all of it.  A world alone in its run
    groups coarser: ``I.`` holds its float times in ``[I, I + 1)`` for
    ``I >= 10`` (only they print so), ``time|`` any other time.  The open
    window's lines wait — that second, or that instant — and once the
    clock has left it, its groups shrink to their CRCs.

    A line is assembled from memoised pieces: the sends of one event
    carry one time object, a tracker fans one payload object out to all
    its neighbors, and cost and delay are functions of (src, dest) — a
    record that deviates from the pair's cached cost or delay is
    formatted in full.  The time and payload memos live for one batch,
    whose records keep the memoised objects alive.
    """

    def __init__(self) -> None:
        self.crc = 0
        #: object_id -> cluster-originated Grow dispatches.  Each dispatch
        #: is observed in exactly one shard, so per-object sums across
        #: shards are exact and K-invariant.
        self.handovers: Dict[int, int] = {}
        # Per (src, dest): (cost, delay, line prefix, line suffix, sender part).
        self._pairs: Dict[tuple, Tuple[float, float, str, str, str]] = {}
        # None until group(), then whether keys hold the sender.
        self._by_sender: Optional[bool] = None
        # The open window as _window() gives it, its lines and the key of
        # each run of lines in one group.
        self._window: Tuple[Any, Any, Optional[str]] = (nan, nan, None)
        self._lines: List[str] = []
        self._keys: List[str] = []
        self._closed = GroupDigest([], array("I"), array("I"))

    def attach(self, cgcast) -> "SendFold":
        cgcast.observe(self.observe)
        return self

    def group(self, by_sender: bool) -> None:
        """Also keep the :meth:`digest`; by sender unless alone in the run."""
        self._by_sender = by_sender

    def observe(self, records) -> None:
        """Fold one batch of send records (a ``CGcast.observe`` callback)."""
        grouped = self._by_sender is not None
        lines, keys = (self._lines, self._keys) if grouped else ([], None)
        start = len(lines)
        cut = self._render(records, lines, keys, self.handovers)
        self.crc = zlib.crc32("".join(lines[start:] if start else lines).encode(), self.crc)
        if cut is not None:
            # The windows before the cut are over: reduce their groups.
            _reduce(keys[:cut[1]], lines[:cut[0]], self._closed)
            del lines[:cut[0]], keys[:cut[1]]

    def render(self, records) -> List[str]:
        """The canonical lines of ``records``, through the memo, folding nothing."""
        lines: List[str] = []
        self._render(records, lines, None, {})
        return lines

    def digest(self) -> GroupDigest:
        """The groups folded so far, the open window's too (a copy)."""
        digest = GroupDigest(*(column[:] for column in self._closed))
        _reduce(self._keys, self._lines, digest)
        return sort_groups(*digest)

    def _render(self, records, lines, keys, handovers) -> Optional[Tuple[int, int]]:
        """Append the lines of ``records``; with ``keys``, also the group
        keys.  Returns where in both the last new window began, if one did."""
        pairs = self._pairs
        by_sender = self._by_sender if keys is not None else None
        append = lines.append
        lo, hi, second = self._window
        cut = None
        last_time = last_payload = pairs  # matches no time or payload
        last_sender = None
        time_part = payload_repr = ""
        for record in records:
            time, src, dest, payload, cost, delay = record
            # Identity, not equality: 3 == 3.0 but they print differently.
            if time is not last_time:
                last_time = time
                time_part = f"{time!r}|"
                last_sender = None
                if by_sender is not None:
                    if not lo <= time < hi and time != lo:
                        cut = len(lines), len(keys)
                        lo, hi, second = _window(time, by_sender)
                    if not by_sender:
                        keys.append(second if second and type(time) is float else time_part)
            if payload is not last_payload:
                last_payload = payload
                payload_repr = repr(payload)
            pair = pairs.get((src, dest))
            if pair is None:
                pair = pairs[(src, dest)] = _pair(src, dest, cost, delay)
            if pair[0] == cost and pair[1] == delay:
                append(f"{time_part}{pair[2]}{payload_repr}{pair[3]}")
            else:
                append(canonical_send_line(record))
            if by_sender and pair[4] is not last_sender:
                last_sender = pair[4]
                keys.append(time_part + last_sender)
            if isinstance(payload, Grow) and isinstance(src, ClusterId):
                oid = getattr(payload, "object_id", 0)
                handovers[oid] = handovers.get(oid, 0) + 1
        if by_sender is not None:
            self._window = lo, hi, second
        return cut


def _window(time, by_sender: bool) -> Tuple[Any, Any, Optional[str]]:
    """``(lo, hi, second)``: the window opened at ``time`` holds the clock
    values ``lo <= t < hi`` and ``lo``; ``second`` keys its float times."""
    if by_sender or not 10 <= time < 1e16:
        return time, time, None
    whole = int(time)
    return whole, whole + 1, f"{whole}."


def _pair(src, dest, cost, delay) -> Tuple[float, float, str, str, str]:
    """The memo entry of one (src, dest) pair; refuses a sender with ``|``."""
    sender = repr(src)
    if "|" in sender:
        raise ValueError(f"sender {sender} holds '|': its lines would not sort by group")
    # Interned: a world has few distinct senders and (cost, delay) suffixes.
    part = intern(f"{sender}|")
    return cost, delay, f"{part}{dest!r}|", intern(f"|{cost!r}|{delay!r}"), part


def sort_groups(keys: Iterable[str], crcs: Iterable[int], sizes: Iterable[int]) -> GroupDigest:
    """The groups in key order (sorted runs of keys merge in linear time)."""
    keys, crcs, sizes = list(keys), array("I", crcs), array("I", sizes)
    order = sorted(range(len(keys)), key=keys.__getitem__)
    return GroupDigest(
        list(map(keys.__getitem__, order)),
        array("I", map(crcs.__getitem__, order)),
        array("I", map(sizes.__getitem__, order)),
    )


def _reduce(keys: List[str], lines: List[str], digest: GroupDigest) -> None:
    """Append the whole groups of ``lines``, keyed among ``keys``, to
    ``digest`` as a run sorted by key: sorted, the lines are the groups
    in key order, each starting at the first line not below its key."""
    lines = sorted(lines)
    keys = sorted(set(keys))
    starts = list(map(bisect_left, repeat(lines), keys))
    groups = map(lines.__getitem__, map(slice, starts, starts[1:] + [len(lines)]))
    data = list(map(str.encode, map("\n".join, groups)))
    digest.keys.extend(keys)
    digest.crcs.extend(map(zlib.crc32, data))
    digest.sizes.extend(map(len, data))


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
        # The world's send fold, told to digest its groups for report().
        # The replica owns it: the fold's subscription becomes the
        # replica's own, so a profile of the engine (benchmarks/perf names
        # observer layers by the owner's class) books the fold to the engine.
        self.send_fold = self.scenario.send_fold
        self.send_fold.group(by_sender=plan.k > 1)
        self.handovers = self.send_fold.handovers
        cgcast = self.system.cgcast
        cgcast.unobserve(self.send_fold.observe)
        cgcast.observe(self._observe_send)
        sharded = plan.k > 1
        if sharded:
            self.system.cgcast.shard_router = self._route_cgcast
            if hasattr(self.system, "client_filter"):
                self.system.client_filter = self.owned.__contains__
        owns = self.owned.__contains__ if sharded else None
        schedule_workload(self.system, workload, owns=owns)

    # ------------------------------------------------------------------
    # Send observer and routing hook
    # ------------------------------------------------------------------
    def _observe_send(self, records) -> None:
        self.send_fold.observe(records)

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
        return self.send_fold.crc

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
            "digest": self.send_fold.digest(),
            "finds": finds,
            "handovers": dict(self.handovers),
            "fault_stats": stats.as_dict() if stats is not None else None,
            "energy": ledger.as_dict() if ledger is not None else None,
            "preconfig": preconfig,
        }
