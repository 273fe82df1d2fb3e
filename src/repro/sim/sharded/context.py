"""One shard's world: a full replica executing only owned events.

Design: rather than splitting the object graph, every shard builds the
*complete* deterministic world from ``config`` (cheap — construction is
pure and topo-cached) and then executes only the events its regions
own.  All inter-automaton interaction in this codebase flows through
messages (the TIOA model), so non-owned replica state simply never
advances — it exists only so object references resolve.  Two hooks
enforce ownership:

* :attr:`CGcast.shard_router` — a copy bound for a foreign region is
  packed into its destination shard's outbox instead of scheduled;
* :attr:`VineStalk.client_filter` — augmented-GPS move/left inputs
  reach only owned regions' clients (the evader itself is replicated
  state: every shard applies every scripted evader action).

A cross-shard copy travels as a flat row, ``(deliver_time, send_time,
seq, tags, src, dest, class, *field values)``, a cluster id as its index
in ``hierarchy.all_clusters()``; bit ``i`` of ``tags`` marks src (0),
dest (1) or payload field ``i - 2`` as one — never the value's type: a
region id may be an int too.  A window's rows go as one batch per
destination shard, the only one to decode them (into its own cluster
instances) and order them ``(deliver_time, src_shard, seq)``.

Every world, sharded or not, folds its C-gcast sends through one
:class:`SendFold` into the :func:`canonical_send_line` stream both
engines fingerprint; a replica also folds them into the
:class:`GroupDigest` its :meth:`ShardContext.report` ships.
"""

from __future__ import annotations

import zlib
from array import array
from bisect import bisect_left
from dataclasses import fields, is_dataclass
from functools import lru_cache, partial
from itertools import chain, repeat
from math import nan
from operator import itemgetter
from sys import intern
from time import perf_counter
from typing import Any, Dict, Iterable, List, NamedTuple, Optional, Tuple

from ...core.messages import Grow, TrackerMessage
from ...hierarchy.cluster import ClusterId
from ...workload import ScriptedWorkload, schedule_workload
from .plan import ShardPlan


class ShardedRunError(RuntimeError):
    """Raised for driver protocol violations or worker failures."""


@lru_cache(maxsize=None)
def _field_names(cls: type) -> Tuple[str, ...]:
    """The fields a ``cls`` payload ships as, in ``__init__`` order."""
    if not (issubclass(cls, TrackerMessage) and is_dataclass(cls)):
        raise ShardedRunError(
            f"cannot ship a {cls.__name__} payload across shards: only "
            "TrackerMessage dataclasses have a flat form"
        )
    return tuple(f.name for f in fields(cls) if f.init)


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
    carry one time object and a tracker fans one payload object out to
    its neighbors (identity memos, for one batch, whose records keep the
    objects alive); a world has few endpoints and ``(cost, delay)``
    values (memos kept per endpoint, never per pair, and per value and
    type: ``2 == 2.0`` but they print differently).
    """

    def __init__(self) -> None:
        self.crc = 0
        #: object_id -> cluster-originated Grow dispatches.  Each dispatch
        #: is observed in exactly one shard, so per-object sums across
        #: shards are exact and K-invariant.
        self.handovers: Dict[int, int] = {}
        # src -> "src|" (interned), dest -> "dest|", and
        # (cost, delay, their types) -> "|cost|delay" (interned).
        self._senders: Dict[Any, str] = {}
        self._dests: Dict[Any, str] = {}
        self._suffixes: Dict[tuple, str] = {}
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

    def digest(self) -> GroupDigest:
        """The groups folded so far, the open window's too (a copy)."""
        digest = GroupDigest(*(column[:] for column in self._closed))
        _reduce(self._keys, self._lines, digest)
        return sort_groups(*digest)

    def _render(self, records, lines, keys, handovers) -> Optional[Tuple[int, int]]:
        """Append the lines of ``records``; with ``keys``, also the group
        keys.  Returns where in both the last new window began, if one did."""
        senders, dests, suffixes = self._senders, self._dests, self._suffixes
        by_sender = self._by_sender if keys is not None else None
        append = lines.append
        lo, hi, second = self._window
        cut = None
        last_time = last_payload = last_src = last_cost = last_delay = senders  # matches no record
        last_sender = None
        time_part = payload_repr = sender = suffix = ""
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
            if src is not last_src:
                last_src = src
                sender = senders.get(src)
                if sender is None:
                    sender = senders[src] = _sender_part(src)
            dest_part = dests.get(dest)
            if dest_part is None:
                dest_part = dests[dest] = f"{dest!r}|"
            if cost is not last_cost or delay is not last_delay:
                last_cost, last_delay = cost, delay
                key = cost, delay, type(cost), type(delay)
                suffix = suffixes.get(key)
                if suffix is None:
                    suffix = f"|{cost!r}|{delay!r}"
                    if cost and delay:  # never a zero: 0.0 == -0.0
                        suffix = suffixes[key] = intern(suffix)
            append(f"{time_part}{sender}{dest_part}{payload_repr}{suffix}")
            if by_sender and sender is not last_sender:
                last_sender = sender
                keys.append(time_part + sender)
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


def _sender_part(src) -> str:
    """``"sender|"``, interned; refuses a sender whose repr holds ``|``."""
    sender = repr(src)
    if "|" in sender:
        raise ValueError(f"sender {sender} holds '|': its lines would not sort by group")
    return intern(f"{sender}|")


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
        plan: The region → shard assignment; ``None`` is the plain
            engine's one shard, which then reads no whole-world plan.
        shard_id: This shard's id in ``plan``.
        workload: The scripted drive; evader actions are scheduled
            fully, finds only when owned.

    With ``plan.k == 1`` (or no plan) no hooks are installed and the
    full workload is scheduled — the replica is then *bit-identical* to
    the plain serial engine path, which the K=1 golden test pins.
    """

    def __init__(
        self,
        config,
        plan: Optional[ShardPlan],
        shard_id: int,
        workload: ScriptedWorkload,
    ) -> None:
        from ...scenario import build

        self.plan = plan
        self.shard_id = shard_id
        sharded = plan is not None and plan.k > 1
        self.scenario = build(config.with_(shards=1))
        self.system = self.scenario.system
        if not getattr(self.system, "quiesces", True):
            raise ValueError(
                f"system {config.system!r} ({type(self.system).__name__}) "
                "never quiesces, and a script runs until the queue drains"
            )
        self.sim = self.system.sim
        self._seq = 0
        self.busy_s = 0.0
        # The world's send fold, told to digest its groups for report().
        # The replica owns it: the fold's subscription becomes the
        # replica's own, so a profile of the engine (benchmarks/perf names
        # observer layers by the owner's class) books the fold to the engine.
        self.send_fold = self.scenario.send_fold
        self.send_fold.group(by_sender=sharded)
        self.handovers = self.send_fold.handovers
        cgcast = self.system.cgcast
        cgcast.unobserve(self.send_fold.observe)
        cgcast.observe(self._observe_send)
        # Rows by dest shard.
        self._outboxes: List[list] = [[] for _ in range(plan.k if sharded else 1)]
        owns = None
        if sharded:
            owns = plan.owned_set(shard_id).__contains__
            # The codec's tables: a cluster id ships as its index here.
            self._clusters = self.scenario.hierarchy.all_clusters()
            self._cluster_index = {c: i for i, c in enumerate(self._clusters)}
            # dest -> (shard, flat dest, tags) when foreign, else None.
            self._routes: Dict[Any, Optional[Tuple[int, Any, int]]] = {}
            cgcast.shard_router = self._route_cgcast
            if hasattr(self.system, "client_filter"):
                self.system.client_filter = owns
        schedule_workload(self.system, workload, owns=owns)

    # ------------------------------------------------------------------
    # Send observer, routing hook and the row codec
    # ------------------------------------------------------------------
    def _observe_send(self, records) -> None:
        self.send_fold.observe(records)

    def _route_cgcast(self, src, dest, payload, deliver_time) -> bool:
        """Pack a copy bound for a foreign shard as a row; claim it."""
        try:
            route = self._routes[dest]
        except KeyError:
            route = self._routes[dest] = self._route_of(dest)
        if route is None:
            return False
        shard, dest, tags = route
        index = self._cluster_index
        if isinstance(src, ClusterId):
            src, tags = index[src], tags | 1
        cls = type(payload)
        values = [cls]
        for bit, name in enumerate(_field_names(cls), 2):
            value = getattr(payload, name)
            if isinstance(value, ClusterId):
                value, tags = index[value], tags | 1 << bit
            values.append(value)
        self._seq += 1
        self._outboxes[shard].append(
            (deliver_time, self.sim.now, self._seq, tags, src, dest, *values)
        )
        return True

    def _route_of(self, dest) -> Optional[Tuple[int, Any, int]]:
        """``(shard, flat dest, tags)`` when a foreign shard hosts ``dest``:
        a cluster process lives at its head's region; ``("clients",
        region)`` lands in that region."""
        if isinstance(dest, ClusterId):
            flat, tags, region = self._cluster_index[dest], 2, self.scenario.hierarchy.head(dest)
        else:
            flat, tags, region = dest[1], 0, dest[1]
        shard = self.plan.shard_of(region)
        return None if shard == self.shard_id else (shard, flat, tags)

    def _decode(self, row) -> tuple:
        """``(deliver_time, send_time, seq, src, dest, payload)`` of a row,
        with this world's own cluster instances."""
        deliver_time, send_time, seq, tags, src, dest, cls, *values = row
        clusters = self._clusters
        if tags & 1:
            src = clusters[src]
        dest = clusters[dest] if tags & 2 else ("clients", dest)
        tags >>= 2
        if tags:
            values = [clusters[v] if tags >> i & 1 else v for i, v in enumerate(values)]
        return deliver_time, send_time, seq, src, dest, cls(*values)

    # ------------------------------------------------------------------
    # Stepping (driver interface)
    # ------------------------------------------------------------------
    def inject(self, batches: Iterable[list]) -> None:
        """Schedule the rows other shards packed for this one.

        ``batches`` holds one row list per sending shard, in shard order,
        each in ``seq`` order, so a stable sort on the delivery time gives
        the canonical ``(deliver_time, src_shard, seq)`` order.  Each copy
        is in this world's ``cgcast.in_transit()`` from here on.  A row due
        before this shard's clock (the barrier it has reached) would
        break causality: it raises :class:`ShardedRunError`.
        """
        copies = sorted(map(self._decode, chain.from_iterable(batches)), key=itemgetter(0))
        barrier = self.sim.now
        if copies and copies[0][0] < barrier:
            deliver_time, send_time, _, src, dest, payload = copies[0]
            raise ShardedRunError(
                f"shard {self.shard_id} got a cross-shard {type(payload).__name__} "
                f"{src!r} -> {dest!r} sent at {send_time!r} and due at "
                f"{deliver_time!r}, before the barrier at {barrier!r}"
            )
        cgcast = self.system.cgcast
        for deliver_time, _, _, src, dest, payload in copies:
            copy = cgcast.remote_copy(src, dest, payload, deliver_time)
            self.sim.call_at(deliver_time, partial(cgcast.apply_remote, copy), tag="xshard:cgcast")

    def step(self, barrier: float, batches: Iterable[list]) -> tuple:
        """One window: inject ``batches`` and run every local event before
        ``barrier``.  Replies ``(outbox, next event time, busy seconds)``,
        the outbox ``{dest shard: (earliest deliver_time, count, rows)}``.
        """
        self.inject(batches)
        t0 = perf_counter()
        self.sim.run_window(barrier)
        busy = perf_counter() - t0
        self.busy_s += busy
        outbox = {}
        for shard, rows in enumerate(self._outboxes):
            if rows:
                outbox[shard] = (min(map(itemgetter(0), rows)), len(rows), rows)
                self._outboxes[shard] = []
        return outbox, self.sim.next_event_time(), busy

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
