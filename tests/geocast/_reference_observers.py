"""The per-record C-gcast observers, as the oracle for the batch folds.

Until sends were folded in batches, ``CGcast._dispatch`` built one
``SendRecord`` per message and called every observer with it, inside
the send.  The five observer bodies of ``src/`` from that time are kept
here (only ``self`` now names a small state holder), without their
memos: the fingerprint formats each record with
:func:`canonical_send_line` and the energy ledger asks ``region_of``
each time, so no oracle shares a fold's memo.  :func:`install` feeds them the old way — one record at a time, from
inside the dispatch, before the message is put in transit — so a test
can run them in lockstep with the folds and require equal state
whenever the loop is idle.

It also holds the fingerprints' definitions, which ``src/`` computes by
folds: ``fold_crc`` of the dispatch-order lines is ``SendFold.crc``,
:func:`canonical_crc` is the canonical fingerprint, and
:func:`reference_groups` is what a ``GroupDigest`` must hold.
"""

import re
import zlib

from repro.analysis.accounting import _FIND, _MOVE, _classify
from repro.core.messages import Grow, TrackerMessage, is_find_message, is_move_message
from repro.energy.ledger import EnergyLedger
from repro.geocast.cgcast import SendRecord
from repro.hierarchy.cluster import ClusterId
from repro.sim.sharded.context import canonical_send_line
from repro.sim.sharded.core import canonical_fingerprint


def rendered_lines(fold, records):
    """The canonical lines ``fold`` makes of ``records``, through its memo,
    folding nothing (the line loop ``SendFold.observe`` runs)."""
    lines = []
    fold._render(records, lines, None, {})
    return lines


def fold_crc(lines, sep=""):
    """``crc32(sep.join(lines).encode())`` — with ``sep=""``, ``SendFold.crc``."""
    return zlib.crc32(sep.join(lines).encode())


def canonical_crc(lines):
    """The canonical fingerprint: the sorted lines joined with newlines."""
    crc = fold_crc(sorted(lines), "\n")
    return f"{crc:08x}"


def reference_groups(lines, by_sender=True):
    """``{key: (crc, byte length)}`` of the sorted lines of each group.

    Keyed ``time|sender|``, or with ``by_sender=False`` ``I.`` for a time
    printed as a float of at least 10 and below 1e16, else ``time|``.
    """
    grouped = {}
    for line in lines:
        time, sender, _ = line.split("|", 2)
        if by_sender:
            key = f"{time}|{sender}|"
        else:
            second = re.fullmatch(r"([1-9][0-9]{1,15})\.[0-9]+", time)
            key = f"{second[1]}." if second else f"{time}|"
        grouped.setdefault(key, []).append(line)
    groups = {}
    for key, members in grouped.items():
        data = "\n".join(sorted(members)).encode()
        groups[key] = (zlib.crc32(data), len(data))
    return groups


def digest_groups(*digests):
    """The same mapping read off group digests; a key found twice fails."""
    groups = {}
    for digest in digests:
        for key, crc, size in zip(*digest):
            assert key not in groups, key
            groups[key] = (crc, size)
    return groups


class ReferenceFingerprint:
    """``SendFold``'s send lines and handover counts, per record."""

    def __init__(self):
        self.send_lines = []
        self.handovers = {}

    def _observe_send(self, record) -> None:
        self.send_lines.append(canonical_send_line(record))
        payload = record.payload
        if isinstance(payload, Grow) and isinstance(record.src, ClusterId):
            oid = getattr(payload, "object_id", 0)
            self.handovers[oid] = self.handovers.get(oid, 0) + 1


class ReferenceAccountant:
    """``WorkAccountant``'s buckets, per record."""

    def __init__(self):
        self.move_work = 0.0
        self.find_work = 0.0
        self.other_work = 0.0
        self.messages = 0
        self.by_kind = {}
        self.count_by_kind = {}
        self._classes = {}

    def observe(self, record) -> None:
        payload = record.payload
        cost = record.cost
        self.messages += 1
        classified = self._classes.get(type(payload))
        if classified is None:
            classified = self._classes[type(payload)] = _classify(payload)
        kind, bucket = classified
        self.by_kind[kind] = self.by_kind.get(kind, 0.0) + cost
        self.count_by_kind[kind] = self.count_by_kind.get(kind, 0) + 1
        if bucket == _MOVE:
            self.move_work += cost
        elif bucket == _FIND:
            self.find_work += cost
        else:
            self.other_work += cost


class _Work:
    work = 0.0


class _MirroredRecords:
    """``get`` finds a record iff the live coordinator has it *now*."""

    def __init__(self, live):
        self.live = live
        self.mirror = {}

    def get(self, find_id):
        if find_id not in self.live:
            return None
        return self.mirror.setdefault(find_id, _Work())


class ReferenceFinds:
    """``FindCoordinator``'s per-find work, per record."""

    def __init__(self, coordinator):
        self.records = _MirroredRecords(coordinator.records)

    def observe_send(self, record) -> None:
        payload = record.payload
        if not is_find_message(payload):
            return
        find_id = getattr(payload, "find_id", 0)
        find = self.records.get(find_id)
        if find is not None:
            find.work += record.cost

    def work(self):
        return {fid: holder.work for fid, holder in self.records.mirror.items()}


class ReferenceEnergy(EnergyLedger):
    """``EnergyLedger`` charging each dispatch as it is made."""

    def observe_send(self, record) -> None:
        """One C-gcast dispatch: tx at the sender, rx at the receiver."""
        model = self.model
        tx = model.tx_cost * record.cost
        rx = model.rx_cost * record.cost
        src, dst = self.region_of(record.src), self.region_of(record.dest)
        self.tx[src] = self.tx.get(src, 0.0) + tx
        self.rx[dst] = self.rx.get(dst, 0.0) + rx
        self.dispatches += 1
        self.dispatch_energy += tx + rx


class ReferenceSync:
    """``ReplicatedVineStalk``'s sync overhead counters, per record."""

    def __init__(self, system):
        self.slots = system.slots
        self.hierarchy = system.hierarchy
        self.sync_messages = 0
        self.sync_work = 0.0

    def _charge_sync(self, record) -> None:
        payload = record.payload
        if not isinstance(payload, TrackerMessage) or not is_move_message(payload):
            return
        if not isinstance(record.dest, ClusterId):
            return
        slots = self.slots[record.dest]
        extra = slots.replication_factor - 1
        if extra > 0:
            self.sync_messages += extra
            self.sync_work += extra * slots.spread(self.hierarchy)


def install(cgcast, *observers):
    """Call ``observers`` with each record from inside ``cgcast``'s dispatch."""
    dispatch = cgcast._dispatch

    def _dispatch(src, dest, payload, delay, cost, *rest):
        record = SendRecord(cgcast.sim.now, src, dest, payload, cost, delay)
        for observer in observers:
            observer(record)
        dispatch(src, dest, payload, delay, cost, *rest)

    cgcast._dispatch = _dispatch


class ReferenceWorld:
    """All five reference observers in lockstep with one ``ShardContext``.

    ``rendered`` keeps the lines the replica's fold makes of each batch it
    is handed (:func:`rendered_lines` on the same batch, through the same memo).
    """

    def __init__(self, context):
        self.context = context
        system = context.system
        self.rendered = []
        system.cgcast.observe(
            lambda records: self.rendered.extend(rendered_lines(context.send_fold, records))
        )
        self.fingerprint = ReferenceFingerprint()
        self.accountant = ReferenceAccountant()
        self.finds = ReferenceFinds(system.finds)
        observers = [
            self.fingerprint._observe_send,
            self.accountant.observe,
            self.finds.observe_send,
        ]
        self.energy = self.sync = None
        ledger = context.scenario.energy_ledger
        if ledger is not None:
            self.energy = ReferenceEnergy(ledger.model, ledger.hierarchy)
            observers.append(self.energy.observe_send)
        if hasattr(system, "sync_work"):
            self.sync = ReferenceSync(system)
            observers.append(self.sync._charge_sync)
        install(system.cgcast, *observers)

    def assert_equal(self):
        """The folds' state equals the per-record state, bit for bit."""
        context, system = self.context, self.context.system
        reference = self.fingerprint
        assert self.rendered == reference.send_lines
        assert context.exact_crc() == fold_crc(reference.send_lines)
        digest = context.send_fold.digest()
        assert digest_groups(digest) == reference_groups(
            reference.send_lines, by_sender=context.plan.k > 1
        )
        assert canonical_fingerprint([digest]) == canonical_crc(reference.send_lines)
        assert list(context.handovers.items()) == list(reference.handovers.items())
        live, reference = context.scenario.accountant, self.accountant
        for name in ("move_work", "find_work", "other_work", "messages"):
            assert getattr(live, name) == getattr(reference, name), name
        assert list(live.by_kind.items()) == list(reference.by_kind.items())
        assert list(live.count_by_kind.items()) == list(
            reference.count_by_kind.items()
        )
        work = {
            fid: record.work
            for fid, record in system.finds.records.items()
            if record.work
        }
        assert work == {fid: w for fid, w in self.finds.work().items() if w}
        if self.energy is not None:
            live, reference = context.scenario.energy_ledger, self.energy
            assert list(live.tx.items()) == list(reference.tx.items())
            assert list(live.rx.items()) == list(reference.rx.items())
            # Sense charges never came through the send observers.
            reference.sense = live.sense
            reference.senses = live.senses
            reference.sense_energy = live.sense_energy
            assert live.as_dict() == reference.as_dict()
        if self.sync is not None:
            assert system.sync_messages == self.sync.sync_messages
            assert system.sync_work == self.sync.sync_work
