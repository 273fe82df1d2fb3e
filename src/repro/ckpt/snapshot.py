"""The versioned snapshot format (tag :data:`CKPT_SCHEMA`).

A :class:`Snapshot` captures a built scenario — event queue with
tie-break counters, every RNG stream position, tracker/VSA/client
automata state, fault-injector arming, geocast in-flight messages, the
send fold, the config it was built from — between two simulation
events, as one :func:`~repro.ckpt.codec.dumps_graph` payload plus a
small typed header (:class:`SnapshotMeta`): schema tag, simulation
time, events fired, the topology keys the payload references instead
of embedding, the Python version the payload's code objects target, a
free-text note, and a SHA-256 digest over all of those fields and the
payload.

The on-disk envelope is a magic line, a 4-byte header length, the JSON
header and the payload.  :func:`load` verifies magic, schema, header
shape, length and digest *before* unpickling anything: a file that
differs from what :func:`save` wrote in any byte raises
:class:`CkptFormatError` or loads as the same snapshot.

The golden guarantee (enforced by ``tests/ckpt``): *snapshot at t, then
resume* produces a run bit-identical — :func:`run_fingerprint` and
result objects — to the uninterrupted run, with observability on or off.
"""

from __future__ import annotations

import hashlib
import json
import struct
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Dict, Tuple, Union

from ..core.tracker import BOTTOM
from ..scenario import Scenario
from ..topo.keys import TopologyKey
from .codec import CkptCodecError, dumps_graph, loads_graph

#: Schema tag of the snapshot format.  Bump on any envelope or payload
#: layout change; :func:`load` refuses other schemas outright.
#: ``ckpt/5``: one header whose digest covers every field and the
#: payload; ``ckpt/4`` digested the payload only, beside a separately
#: pickled config section.
CKPT_SCHEMA = "ckpt/5"

#: A lane's pointers at a cluster that is off its path.
_BOTTOMS = (BOTTOM,) * 4

#: First bytes of every checkpoint file.
CKPT_MAGIC = b"repro-ckpt\n"

#: The on-disk header's keys and the JSON types of their values.
_HEADER_TYPES: Dict[str, Any] = {
    "schema": str,
    "sim_time": (int, float),
    "events_fired": int,
    "topo_keys": list,
    "fingerprint": str,
    "python": str,
    "note": str,
    "payload_bytes": int,
}


class CkptFormatError(RuntimeError):
    """The file is not a readable checkpoint of this schema."""


class CkptCompatError(RuntimeError):
    """The checkpoint is readable but incompatible with this process."""


@dataclass(frozen=True)
class SnapshotMeta:
    """Typed header of one snapshot (JSON-safe fields only)."""

    schema: str
    sim_time: float
    events_fired: int
    topo_keys: Tuple[TopologyKey, ...]
    fingerprint: str
    python: str
    note: str = ""

    def as_json_dict(self) -> Dict[str, Any]:
        return {
            "schema": self.schema,
            "sim_time": self.sim_time,
            "events_fired": self.events_fired,
            "topo_keys": [
                {"kind": k.kind, "r": k.r, "max_level": k.max_level}
                for k in self.topo_keys
            ],
            "fingerprint": self.fingerprint,
            "python": self.python,
            "note": self.note,
        }

    @classmethod
    def from_json_dict(cls, data: Dict[str, Any]) -> "SnapshotMeta":
        return cls(
            schema=data["schema"],
            sim_time=data["sim_time"],
            events_fired=data["events_fired"],
            topo_keys=tuple(
                TopologyKey(k["kind"], k["r"], k["max_level"])
                for k in data["topo_keys"]
            ),
            fingerprint=data["fingerprint"],
            python=data["python"],
            note=data["note"],
        )


@dataclass(frozen=True)
class Snapshot:
    """One checkpoint, ready to restore, fork or save."""

    meta: SnapshotMeta
    payload: bytes = field(repr=False)


def _digest(meta: SnapshotMeta, payload: bytes) -> str:
    """SHA-256 over every header field but the digest, then the payload."""
    fields = meta.as_json_dict()
    del fields["fingerprint"]
    head = json.dumps(fields, sort_keys=True).encode("utf-8")
    return "sha256:" + hashlib.sha256(head + b"\0" + payload).hexdigest()


def _python_tag() -> str:
    return f"{sys.version_info.major}.{sys.version_info.minor}"


def snapshot_scenario(scenario: Scenario, note: str = "") -> Snapshot:
    """Capture ``scenario`` as a snapshot.

    Raises:
        SimulationError: when the simulator loop is mid-event — a
            snapshot is only well-defined on the inter-event boundary.
    """
    sim = scenario.sim
    if sim is not None and sim.running:
        from ..sim.engine import SimulationError

        raise SimulationError("cannot snapshot while the simulator loop is running")
    payload, topo_keys = dumps_graph(scenario)
    meta = SnapshotMeta(
        schema=CKPT_SCHEMA,
        sim_time=0.0 if sim is None else sim.now,
        events_fired=0 if sim is None else sim.events_fired,
        topo_keys=topo_keys,
        fingerprint="",
        python=_python_tag(),
        note=note,
    )
    meta = replace(meta, fingerprint=_digest(meta, payload))
    return Snapshot(meta=meta, payload=payload)


def restore_scenario(snapshot: Snapshot) -> Scenario:
    """Restore a snapshot into a fresh, independent continuation.

    Every restore unpickles the payload anew, so N restores give N
    disjoint object graphs (fork-ready); topology references resolve
    through this process's content-addressed cache, rebuilding on a
    cold cache.  The scenario carries the config it was built from.

    Raises:
        CkptFormatError: another schema, or a payload that does not
            decode.
    """
    if snapshot.meta.schema != CKPT_SCHEMA:
        raise CkptFormatError(
            f"snapshot schema {snapshot.meta.schema!r} != {CKPT_SCHEMA!r}"
        )
    try:
        return loads_graph(snapshot.payload)
    except CkptCodecError as exc:
        raise CkptFormatError(str(exc)) from exc


# ----------------------------------------------------------------------
# On-disk envelope
# ----------------------------------------------------------------------
def save(snapshot: Snapshot, path: Union[str, Path]) -> None:
    """Write the snapshot to ``path`` in the :data:`CKPT_SCHEMA` envelope."""
    header = json.dumps(
        {**snapshot.meta.as_json_dict(), "payload_bytes": len(snapshot.payload)},
        sort_keys=True,
    ).encode("utf-8")
    with open(path, "wb") as handle:
        handle.write(CKPT_MAGIC)
        handle.write(struct.pack(">I", len(header)))
        handle.write(header)
        handle.write(snapshot.payload)


def _read_meta(path: Union[str, Path], header: Any) -> SnapshotMeta:
    """The typed meta of a parsed header dict; any other shape is refused."""
    if set(header) != set(_HEADER_TYPES):
        raise CkptFormatError(f"{path}: header keys are not {sorted(_HEADER_TYPES)}")
    for key, kind in _HEADER_TYPES.items():
        if not isinstance(header[key], kind) or isinstance(header[key], bool):
            raise CkptFormatError(f"{path}: header {key!r} has the wrong type")
    try:
        return SnapshotMeta.from_json_dict(header)
    except (KeyError, TypeError, ValueError) as exc:
        raise CkptFormatError(f"{path}: malformed header: {exc!r}") from exc


def load(path: Union[str, Path]) -> Snapshot:
    """Read a :data:`CKPT_SCHEMA` file with strict format and compat checks.

    Raises:
        CkptFormatError: bad magic, wrong schema, a malformed header,
            truncated sections or a header or payload that fails the
            digest.
        CkptCompatError: the payload was written by a different Python
            minor version (its by-value code objects may not load).
    """
    data = Path(path).read_bytes()
    if not data.startswith(CKPT_MAGIC):
        raise CkptFormatError(f"{path}: not a repro checkpoint (bad magic)")
    offset = len(CKPT_MAGIC)
    if len(data) < offset + 4:
        raise CkptFormatError(f"{path}: truncated header length")
    (header_len,) = struct.unpack(">I", data[offset:offset + 4])
    offset += 4
    try:
        header = json.loads(data[offset:offset + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CkptFormatError(f"{path}: unreadable header: {exc}") from exc
    offset += header_len
    schema = header.get("schema") if isinstance(header, dict) else None
    if schema != CKPT_SCHEMA:
        raise CkptFormatError(
            f"{path}: schema {schema!r} != {CKPT_SCHEMA!r} "
            "(no cross-version compatibility is promised)"
        )
    meta = _read_meta(path, header)
    if len(data) != offset + header["payload_bytes"]:
        raise CkptFormatError(
            f"{path}: expected {offset + header['payload_bytes']} bytes, "
            f"file has {len(data)}"
        )
    payload = data[offset:]
    if _digest(meta, payload) != meta.fingerprint:
        raise CkptFormatError(f"{path}: header or payload fails its fingerprint check")
    if meta.python != _python_tag():
        raise CkptCompatError(
            f"{path}: written under Python {meta.python}, this is "
            f"{_python_tag()} — by-value code objects may not load; "
            "regenerate the checkpoint"
        )
    return Snapshot(meta=meta, payload=payload)


# ----------------------------------------------------------------------
# The canonical run fingerprint (the golden-guarantee comparator)
# ----------------------------------------------------------------------
def run_fingerprint(scenario: Scenario) -> tuple:
    """Deterministic fingerprint of everything a run observably did.

    ``(clock, events fired, sends, send CRC, accountant totals, finds,
    pointers)``: the send CRC is the scenario's
    :class:`~repro.sim.sharded.context.SendFold` — every C-gcast send in
    dispatch order, as its canonical line — and the pointers are each
    lane's non-⊥ ``(c, p, nbrptup, nbrptdown)`` per cluster at the end.
    Two runs with equal fingerprints sent the same messages at the same
    times and ended in the same state; *snapshot then resume* must match
    the uninterrupted run's fingerprint exactly.
    """
    system = scenario.system
    sim = system.sim
    accountant = scenario.accountant
    finds = tuple(
        (find_id, record.completed, record.latency, record.work, record.retries)
        for find_id, record in system.finds.records.items()
    )
    pointers = tuple(
        (object_id, clust, state)
        for object_id in sorted({0, *system.objects})
        for clust, tracker in system.trackers.items()
        if (state := tracker.pointer_state(object_id)) != _BOTTOMS
    )
    return (
        sim.now,
        sim.events_fired,
        system.cgcast.messages_sent,
        scenario.send_fold.crc,
        (
            accountant.move_work,
            accountant.find_work,
            accountant.other_work,
            accountant.messages,
        ),
        finds,
        pointers,
    )
