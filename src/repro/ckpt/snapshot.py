"""The checkpoint format (tag :data:`CKPT_SCHEMA`): a run's inputs and its cut.

The systems are timed I/O automata, so a run of a built world is a
function of its :class:`~repro.scenario.ScenarioConfig` and the scripts
scheduled on it.  A :class:`Snapshot` therefore holds no live state: its
payload is that config and those scripts as JSON, and its header
(:class:`SnapshotMeta`) holds the schema tag, the cut (simulation time,
events fired), a free-text note and a digest of
``repr(run_fingerprint(...))`` at the cut.  :func:`restore_scenario`
builds the config, schedules the scripts, replays to the cut and
requires that digest, so a world also driven from Python outside its
scripts, or a file whose run the current code no longer reproduces, is
refused at its cut instead of resuming a different run.

The payload is :func:`repro.workload.encode_inputs`: one closed table
of frozen dataclasses, whose constructors — and so their checks, a
script's validity among them — are all that decoding calls.

On disk a checkpoint is two JSON lines: the header with a SHA-256
``digest`` over every header field and the payload, then the payload.
:func:`load` checks the header's shape, schema and digest: a file that
differs from what :func:`save` wrote in any byte raises
:class:`CkptFormatError` or loads as the same snapshot.

The golden guarantee (enforced by ``tests/ckpt``): *snapshot at t, then
resume* produces a run bit-identical — :func:`run_fingerprint` and
result objects — to the uninterrupted run, with observability on or off.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Any, Dict, Tuple, Union

from ..core.state import BOTTOMS
from ..obs._state import OBS
from ..scenario import Scenario, ScenarioConfig, build
from ..workload import ScriptedWorkload, decode_inputs, encode_inputs, schedule_workload

#: Schema tag of the snapshot format.  Bump on any change to the file
#: layout or the value table; :func:`load` refuses other schemas
#: outright.  ``ckpt/6``: config, scripts and cut as JSON, restored by
#: replay; earlier schemas serialized the live world.
CKPT_SCHEMA = "ckpt/6"

#: The on-disk header's keys and the JSON types of their values.
_HEADER_TYPES: Dict[str, Any] = {
    "schema": str,
    "sim_time": (int, float),
    "events_fired": int,
    "fingerprint": str,
    "note": str,
    "digest": str,
}


class CkptFormatError(RuntimeError):
    """The file is not a checkpoint of this schema, or its run does not replay."""


@dataclass(frozen=True)
class SnapshotMeta:
    """Typed header of one snapshot (JSON-safe fields only).

    ``fingerprint`` is the SHA-256 of ``repr(run_fingerprint(...))`` of
    the world at the cut.
    """

    schema: str
    sim_time: float
    events_fired: int
    fingerprint: str
    note: str = ""


@dataclass(frozen=True)
class Snapshot:
    """One checkpoint: its header and its payload (config and scripts)."""

    meta: SnapshotMeta
    payload: bytes = field(repr=False)

    @cached_property
    def digest(self) -> str:
        """SHA-256 over every header field, then the payload: what
        :func:`save` writes beside the header and :func:`load` checks."""
        head = json.dumps(asdict(self.meta), sort_keys=True).encode()
        return "sha256:" + hashlib.sha256(head + b"\0" + self.payload).hexdigest()


# ----------------------------------------------------------------------
# Payload
# ----------------------------------------------------------------------
def _config_and_scripts(payload: bytes) -> Tuple[ScenarioConfig, tuple]:
    try:
        return decode_inputs(payload)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise CkptFormatError(f"payload does not decode: {exc!r}") from exc


def _fingerprint_digest(scenario: Scenario) -> str:
    text = repr(run_fingerprint(scenario))
    return "sha256:" + hashlib.sha256(text.encode()).hexdigest()


# ----------------------------------------------------------------------
# Capture and replay
# ----------------------------------------------------------------------
def snapshot_scenario(scenario: Scenario, note: str = "") -> Snapshot:
    """Capture ``scenario``'s config, scripts and cut as a snapshot.

    Raises:
        SimulationError: when the simulator loop is mid-event — a
            snapshot is only well-defined on the inter-event boundary.
        ValueError: a config field the value table cannot hold (an
            explicit ``hierarchy`` or ``schedule``, a class as
            ``system``); the message names it.
    """
    sim = scenario.sim
    if sim.running:
        from ..sim.engine import SimulationError

        raise SimulationError("cannot snapshot while the simulator loop is running")
    payload = encode_inputs(scenario.config, tuple(scenario.system.scripts))
    meta = SnapshotMeta(
        schema=CKPT_SCHEMA,
        sim_time=sim.now,
        events_fired=sim.events_fired,
        fingerprint=_fingerprint_digest(scenario),
        note=note,
    )
    return Snapshot(meta=meta, payload=payload)


def restore_scenario(snapshot: Snapshot) -> Scenario:
    """Rebuild the snapshot's world and replay it to the cut.

    Builds the config, schedules the scripts and runs to the cut with
    the obs gate closed, so a live collector sees only the continuation.
    Every call builds a fresh world: N restores are independent.

    Raises:
        CkptFormatError: another schema, a payload that does not decode
            (an invalid script among them), or a replay whose run
            fingerprint at the cut differs.
        ScriptError: a script names a region outside the world.
    """
    meta = snapshot.meta
    if meta.schema != CKPT_SCHEMA:
        raise CkptFormatError(f"snapshot schema {meta.schema!r} != {CKPT_SCHEMA!r}")
    config, scripts = _config_and_scripts(snapshot.payload)
    gate = OBS.events_enabled, OBS.collector
    OBS.events_enabled, OBS.collector = False, None
    try:
        scenario = build(config)
        for script in scripts:
            schedule_workload(scenario.system, script)
        scenario.sim.run_until(meta.sim_time, max_events=meta.events_fired)
    finally:
        OBS.events_enabled, OBS.collector = gate
    if _fingerprint_digest(scenario) != meta.fingerprint:
        raise CkptFormatError(
            f"replay to the cut (t={meta.sim_time:g}, {meta.events_fired} "
            "events) does not reproduce the snapshot's run fingerprint"
        )
    return scenario


# ----------------------------------------------------------------------
# On-disk envelope
# ----------------------------------------------------------------------
def save(snapshot: Snapshot, path: Union[str, Path]) -> None:
    """Write the header line, then the payload line."""
    header = {**asdict(snapshot.meta), "digest": snapshot.digest}
    line = json.dumps(header, sort_keys=True).encode()
    Path(path).write_bytes(line + b"\n" + snapshot.payload + b"\n")


def load(path: Union[str, Path]) -> Snapshot:
    """:func:`loads` on a file's bytes; each refusal names the path."""
    try:
        return loads(Path(path).read_bytes())
    except CkptFormatError as exc:
        raise CkptFormatError(f"{path}: {exc}") from exc


def loads(data: bytes) -> Snapshot:
    """Parse a checkpoint's bytes with strict format checks.

    Raises:
        CkptFormatError: an unreadable or malformed header, another
            schema, or a header or payload that fails the digest (a
            truncated file does).
    """
    head, _, rest = data.partition(b"\n")
    try:
        header = json.loads(head.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CkptFormatError(f"not a checkpoint: unreadable header: {exc}") from exc
    schema = header.get("schema") if isinstance(header, dict) else None
    if schema != CKPT_SCHEMA:
        raise CkptFormatError(
            f"schema {schema!r} != {CKPT_SCHEMA!r} "
            "(no cross-version compatibility is promised)"
        )
    if set(header) != set(_HEADER_TYPES):
        raise CkptFormatError(f"header keys are not {sorted(_HEADER_TYPES)}")
    for key, kind in _HEADER_TYPES.items():
        if not isinstance(header[key], kind) or isinstance(header[key], bool):
            raise CkptFormatError(f"header {key!r} has the wrong type")
    digest = header.pop("digest")
    snapshot = Snapshot(SnapshotMeta(**header), rest.removesuffix(b"\n"))
    if snapshot.digest != digest:
        raise CkptFormatError("header or payload fails its digest check")
    return snapshot


def read_run(path: Union[str, Path]) -> Tuple[ScenarioConfig, ScriptedWorkload]:
    """A run file's inputs: its config and its one script, cut aside.

    ``repro run FILE --shards K`` and ``repro bisect`` run them from t=0;
    the cut is only where ``repro run FILE`` continues.

    Raises:
        CkptFormatError: what :func:`load` refuses, a payload that does
            not decode, or a file that does not hold exactly one script.
    """
    config, scripts = _config_and_scripts(load(path).payload)
    if len(scripts) != 1:
        raise CkptFormatError(
            f"{path}: a run file holds one script, this one holds {len(scripts)}"
        )
    return config, scripts[0]


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
    # Built trackers only, in cluster order: one never built is all ⊥.
    built = system.trackers.built
    trackers = [built[c] for c in sorted(built)]
    pointers = tuple(
        (object_id, tracker.clust, state)
        for object_id in sorted({0, *system.objects})
        for tracker in trackers
        if (state := tracker.pointer_state(object_id)) != BOTTOMS
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
