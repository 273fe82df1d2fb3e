"""The versioned ``ckpt/3`` snapshot format.

A :class:`Snapshot` captures a built scenario — event queue with
tie-break counters, every RNG stream position, tracker/VSA/client
automata state, fault-injector arming, geocast in-flight messages, the
trace — between two simulation events, as one
:func:`~repro.ckpt.codec.dumps_graph` payload plus a small typed header:

* ``meta`` — schema tag, simulation time, events fired, the topology
  keys the payload references instead of embedding, a SHA-256 payload
  fingerprint and the Python version the payload's code objects target;
* ``config`` — the :class:`~repro.scenario.ScenarioConfig` the world was
  built from, readable without touching the payload (compat checks);
* ``payload`` — the pickled object graph: ``(scenario, extras)``.

The on-disk envelope is a magic line, a JSON header and the two pickle
sections; :func:`load` verifies magic, schema, Python version and the
payload fingerprint *before* unpickling anything, and raises a typed
error on any mismatch.

The golden guarantee (enforced by ``tests/ckpt``): *snapshot at t, then
resume* produces a run bit-identical — :func:`trace_fingerprint` and
result objects — to the uninterrupted run, with observability on or off.
"""

from __future__ import annotations

import hashlib
import json
import struct
import sys
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

from ..scenario import Scenario
from ..topo.keys import TopologyKey
from .codec import dumps_graph, loads_graph

#: Schema tag of the snapshot format.  Bump on any envelope or payload
#: layout change; :func:`load` refuses other schemas outright.
#: ``ckpt/3``: ``CGcast`` holds pending send records, ``Simulator`` its
#: loop-exit hooks and a public ``running``, and ``Tracker`` restores
#: its lane scheduling state as pickled; ``ckpt/2`` payloads have none.
CKPT_SCHEMA = "ckpt/3"

#: First bytes of every checkpoint file.
CKPT_MAGIC = b"repro-ckpt\n"


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
            note=data.get("note", ""),
        )


@dataclass(frozen=True)
class Snapshot:
    """One ``ckpt/3`` checkpoint, ready to restore, fork or save."""

    meta: SnapshotMeta
    config: Any  # ScenarioConfig (typed loosely to avoid an import cycle)
    payload: bytes = field(repr=False)


@dataclass
class Restored:
    """A restored continuation: the scenario plus its snapshot extras."""

    scenario: Scenario
    extras: Dict[str, Any] = field(default_factory=dict)


def _payload_fingerprint(payload: bytes) -> str:
    return "sha256:" + hashlib.sha256(payload).hexdigest()


def _python_tag() -> str:
    return f"{sys.version_info.major}.{sys.version_info.minor}"


def snapshot_scenario(
    scenario: Scenario,
    extras: Optional[Dict[str, Any]] = None,
    note: str = "",
) -> Snapshot:
    """Capture ``scenario`` (and optional extra handles) as a snapshot.

    ``extras`` is a dict of additional picklable objects to carry along
    — typically evader handles or workload RNGs that are not reachable
    from the scenario itself.  Objects shared between the scenario and
    the extras stay shared in the restored graph (one pickle memo).

    Raises:
        SimulationError: when the simulator loop is mid-event — a
            snapshot is only well-defined on the inter-event boundary.
    """
    sim = scenario.sim
    if sim is not None and sim.running:
        from ..sim.engine import SimulationError

        raise SimulationError("cannot snapshot while the simulator loop is running")
    payload, topo_keys = dumps_graph((scenario, dict(extras or {})))
    meta = SnapshotMeta(
        schema=CKPT_SCHEMA,
        sim_time=0.0 if sim is None else sim.now,
        events_fired=0 if sim is None else sim.events_fired,
        topo_keys=topo_keys,
        fingerprint=_payload_fingerprint(payload),
        python=_python_tag(),
        note=note,
    )
    return Snapshot(meta=meta, config=scenario.config, payload=payload)


def restore_scenario(snapshot: Snapshot) -> Restored:
    """Restore a snapshot into a fresh, independent continuation.

    Every restore unpickles the payload anew, so N restores give N
    disjoint object graphs (fork-ready); topology references resolve
    through this process's content-addressed cache, rebuilding on a
    cold cache.
    """
    if snapshot.meta.schema != CKPT_SCHEMA:
        raise CkptFormatError(
            f"snapshot schema {snapshot.meta.schema!r} != {CKPT_SCHEMA!r}"
        )
    scenario, extras = loads_graph(snapshot.payload)
    return Restored(scenario=scenario, extras=extras)


# ----------------------------------------------------------------------
# On-disk envelope
# ----------------------------------------------------------------------
def save(snapshot: Snapshot, path: Union[str, Path]) -> None:
    """Write the snapshot to ``path`` in the ``ckpt/3`` envelope."""
    config_blob, _ = dumps_graph(snapshot.config)
    header = json.dumps(
        {**snapshot.meta.as_json_dict(),
         "config_bytes": len(config_blob),
         "payload_bytes": len(snapshot.payload)},
        sort_keys=True,
    ).encode("utf-8")
    with open(path, "wb") as handle:
        handle.write(CKPT_MAGIC)
        handle.write(struct.pack(">I", len(header)))
        handle.write(header)
        handle.write(config_blob)
        handle.write(snapshot.payload)


def load(path: Union[str, Path], allow_python_mismatch: bool = False) -> Snapshot:
    """Read a ``ckpt/3`` file with strict format and compat checks.

    Raises:
        CkptFormatError: bad magic, wrong schema, truncated sections or
            a payload that fails its fingerprint.
        CkptCompatError: the payload was written by a different Python
            minor version (its by-value code objects may not load) —
            pass ``allow_python_mismatch=True`` to try anyway.
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
    if header.get("schema") != CKPT_SCHEMA:
        raise CkptFormatError(
            f"{path}: schema {header.get('schema')!r} != {CKPT_SCHEMA!r} "
            "(no cross-version compatibility is promised)"
        )
    meta = SnapshotMeta.from_json_dict(header)
    config_bytes = header["config_bytes"]
    payload_bytes = header["payload_bytes"]
    if len(data) != offset + config_bytes + payload_bytes:
        raise CkptFormatError(
            f"{path}: expected {offset + config_bytes + payload_bytes} bytes, "
            f"file has {len(data)}"
        )
    config_blob = data[offset:offset + config_bytes]
    payload = data[offset + config_bytes:]
    if _payload_fingerprint(payload) != meta.fingerprint:
        raise CkptFormatError(f"{path}: payload fails its fingerprint check")
    if meta.python != _python_tag() and not allow_python_mismatch:
        raise CkptCompatError(
            f"{path}: written under Python {meta.python}, this is "
            f"{_python_tag()} — by-value code objects may not load "
            "(pass allow_python_mismatch=True to try)"
        )
    return Snapshot(meta=meta, config=loads_graph(config_blob), payload=payload)


# ----------------------------------------------------------------------
# The canonical run fingerprint (the golden-guarantee comparator)
# ----------------------------------------------------------------------
def trace_fingerprint(scenario: Scenario) -> tuple:
    """Deterministic fingerprint of everything a run observably did.

    Folds the full trace (every record, order-sensitive) into a CRC and
    combines it with the clock, the events-fired count, the evader
    position, the accountant totals and every find record.  Two runs
    with equal fingerprints executed the same events with the same
    outcomes; *snapshot then resume* must match the uninterrupted run's
    fingerprint exactly.
    """
    system = scenario.system
    sim = system.sim
    crc = 0
    for rec in sim.trace:
        crc = zlib.crc32(
            repr((rec.time, rec.source, rec.kind, rec.detail)).encode("utf-8"),
            crc,
        )
    finds = tuple(
        (find_id, record.completed, record.latency, record.work, record.retries)
        for find_id, record in system.finds.records.items()
    )
    accountant = scenario.accountant
    evader = getattr(system, "evader", None)
    return (
        sim.now,
        sim.events_fired,
        len(sim.trace),
        crc,
        None if evader is None else evader.region,
        None
        if accountant is None
        else (
            accountant.move_work,
            accountant.find_work,
            accountant.other_work,
            accountant.messages,
        ),
        finds,
    )
