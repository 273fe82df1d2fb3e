"""The checkpoint file: strict format checks, and a cut that must replay.

A checkpoint is two JSON lines, a header and the payload (config and
scripts).  Every corruption mode must be caught by :func:`load`: an
unreadable or malformed header, another schema, a header or payload
that fails the digest — and a flipped bit anywhere
in the file either fails closed or loads the same snapshot.  A payload
that passes the digest but holds something outside the value table is
refused by :func:`restore_scenario`.
"""

import json
import re

import pytest

from repro.ckpt import (
    CKPT_SCHEMA,
    CkptFormatError,
    Snapshot,
    SnapshotMeta,
    load,
    loads,
    restore_scenario,
    save,
    snapshot_scenario,
)
from repro.scenario import build
from repro.sim.sharded import walk_scenario
from repro.workload import schedule_workload

CONFIG, SCRIPT = walk_scenario(2, 2, shards=1, n_moves=5, seed=7)


def _walk():
    scenario = build(CONFIG)
    schedule_workload(scenario.system, SCRIPT)
    return scenario


@pytest.fixture(scope="module")
def snapshot():
    scenario = _walk()
    scenario.sim.run_until(25.0)
    return snapshot_scenario(scenario, note="format-test")


@pytest.fixture()
def ckpt_path(snapshot, tmp_path):
    path = tmp_path / "walk.ckpt"
    save(snapshot, path)
    return path


def _header_of(data):
    head, _, payload = data.partition(b"\n")
    return json.loads(head), payload


def _with_header(header, payload, redigest=False):
    if redigest:  # a header that passes the digest check
        fields = {k: v for k, v in header.items() if k != "digest"}
        header = dict(header, digest=Snapshot(SnapshotMeta(**fields), payload[:-1]).digest)
    return json.dumps(header, sort_keys=True).encode() + b"\n" + payload


class TestRoundTrip:
    def test_load_returns_equivalent_snapshot(self, snapshot, ckpt_path):
        loaded = load(ckpt_path)
        assert loaded.meta == snapshot.meta
        assert loaded.payload == snapshot.payload
        assert restore_scenario(loaded).config == CONFIG

    def test_meta_is_readable_without_unpickling(self, snapshot, ckpt_path):
        assert snapshot.meta.schema == CKPT_SCHEMA
        assert snapshot.meta.sim_time == 25.0
        assert snapshot.meta.note == "format-test"
        assert snapshot.meta.fingerprint.startswith("sha256:")
        header, payload = _header_of(ckpt_path.read_bytes())
        assert header["schema"] == CKPT_SCHEMA
        assert header["digest"].startswith("sha256:")
        document = json.loads(payload)
        assert document["config"]["ScenarioConfig"]["seed"] == 7
        (script,) = document["scripts"]
        assert len(script["ScriptedWorkload"]["actions"]) == len(SCRIPT.actions)


class TestCorruption:
    def test_bad_magic(self, ckpt_path, tmp_path):
        bad = tmp_path / "bad-magic.ckpt"
        bad.write_bytes(b"not-a-ckpt\n" + ckpt_path.read_bytes())
        with pytest.raises(CkptFormatError, match="not a checkpoint"):
            load(bad)

    def test_truncated_header(self, ckpt_path, tmp_path):
        bad = tmp_path / "truncated.ckpt"
        bad.write_bytes(ckpt_path.read_bytes()[:40])
        with pytest.raises(CkptFormatError, match="unreadable header"):
            load(bad)

    def test_truncated_payload(self, ckpt_path, tmp_path):
        bad = tmp_path / "short.ckpt"
        bad.write_bytes(ckpt_path.read_bytes()[:-10] + b"\n")
        with pytest.raises(CkptFormatError, match="digest"):
            load(bad)

    def test_flipped_payload_byte_fails_fingerprint(self, ckpt_path, tmp_path):
        data = bytearray(ckpt_path.read_bytes())
        data[-2] ^= 0x01
        bad = tmp_path / "flipped.ckpt"
        bad.write_bytes(bytes(data))
        with pytest.raises(CkptFormatError, match="digest"):
            load(bad)

    def test_wrong_schema(self, ckpt_path, tmp_path):
        header, payload = _header_of(ckpt_path.read_bytes())
        header["schema"] = "ckpt/5"
        bad = tmp_path / "schema.ckpt"
        bad.write_bytes(_with_header(header, payload))
        with pytest.raises(CkptFormatError, match="schema"):
            load(bad)

    @pytest.mark.parametrize("malform", [
        lambda h: h.pop("note"), lambda h: h.update(extra=1),
        lambda h: h.update(note=None), lambda h: h.update(sim_time="25.0"),
        lambda h: h.update(events_fired=1.5),
        lambda h: h.update(events_fired=True),
        lambda h: h.update(fingerprint=["sha256:"]),
        lambda h: h.update(digest=0),
    ], ids=["missing-key", "unknown-key", "null-note", "str-time",
            "float-count", "bool-count", "list-fingerprint", "int-digest"])
    def test_malformed_header(self, ckpt_path, tmp_path, malform):
        header, payload = _header_of(ckpt_path.read_bytes())
        malform(header)
        bad = tmp_path / "malformed.ckpt"
        bad.write_bytes(_with_header(header, payload))
        with pytest.raises(CkptFormatError, match="header") as refused:
            load(bad)
        assert "digest check" not in str(refused.value)  # refused first

    def test_every_flipped_bit_fails_closed_or_loads_the_same(
        self, snapshot, ckpt_path, tmp_path
    ):
        """Every bit of every byte: :class:`CkptFormatError`, or the
        same snapshot.  The flips go through :func:`loads` (a file
        rewrite per flip costs minutes on a slow disk); one goes through
        the file API too."""
        data = ckpt_path.read_bytes()
        outcomes = {"refused": 0, "same": 0}
        for pos in range(len(data)):
            for bit in range(8):
                flipped = bytearray(data)
                flipped[pos] ^= 1 << bit
                try:
                    loaded = loads(bytes(flipped))
                except CkptFormatError:
                    outcomes["refused"] += 1
                    continue
                assert loaded == snapshot, (pos, bit)
                outcomes["same"] += 1
        assert sum(outcomes.values()) == 8 * len(data), outcomes
        assert outcomes["refused"] > 0.99 * 8 * len(data), outcomes
        bad = tmp_path / "flipped.ckpt"
        bad.write_bytes(bytes([data[0] ^ 1]) + data[1:])
        with pytest.raises(CkptFormatError, match=f"^{re.escape(str(bad))}: not a checkpoint"):
            load(bad)

    def test_a_recomputed_digest_does_not_move_the_cut(self, ckpt_path, tmp_path):
        header, payload = _header_of(ckpt_path.read_bytes())
        header["events_fired"] -= 1
        bad = tmp_path / "moved.ckpt"
        bad.write_bytes(_with_header(header, payload, redigest=True))
        with pytest.raises(CkptFormatError, match="run fingerprint"):
            restore_scenario(load(bad))

    def test_undecodable_payload_is_a_format_error(self, snapshot):
        with pytest.raises(CkptFormatError, match="payload"):
            restore_scenario(Snapshot(meta=snapshot.meta, payload=b"not json"))

    @pytest.mark.parametrize("payload", [
        b"[]",
        b'{"config": {"ScenarioConfig": {"r": 2}}}',
        b'{"config": {"ScenarioConfig": {"r": 2}}, "scripts": [], "x": 1}',
        b'{"config": {"ScenarioConfig": {"n_objects": 0}}, "scripts": []}',
        b'{"config": {"ScenarioConfig": {"bogus": 1}}, "scripts": []}',
        b'{"config": {"Popen": {"args": "sh"}}, "scripts": []}',
        b'{"config": {"FaultPlan": {}}, "scripts": []}',
        b'{"config": {"ScenarioConfig": {"system": "flooding"}}, "scripts": []}',
        b'{"config": {"ScenarioConfig": {}}, "scripts": [{"FaultPlan": {}}]}',
        b'{"config": {"ScenarioConfig": {}}, "scripts": [{"ScriptedWorkload": '
        b'{"actions": {"FaultPlan": {}}, "horizon": 1.0}}]}',
        b'{"config": {"ScenarioConfig": {}}, "scripts": [{"ScriptedWorkload": '
        b'{"actions": [{"FaultPlan": {}}], "horizon": 1.0}}]}',
    ], ids=["list", "no-scripts", "extra-key", "bad-value", "unknown-field",
            "unknown-type", "not-a-config", "analytic", "not-a-script",
            "actions-not-a-list", "not-an-action"])
    def test_a_payload_outside_the_value_table_is_refused(self, snapshot, payload):
        with pytest.raises(CkptFormatError, match="payload"):
            restore_scenario(Snapshot(meta=snapshot.meta, payload=payload))


class TestCheckpointSize:
    def test_tracked_walk_snapshot_does_not_grow_with_events(self):
        """A snapshot holds the world's inputs, not the run so far: the
        payload is the same at every cut."""
        scenario = _walk()
        payloads = set()
        for t in (5.0, 62.0, 150.0):
            scenario.sim.run_until(t)
            payloads.add(snapshot_scenario(scenario).payload)
        assert len(payloads) == 1 and scenario.sim.events_fired > 100


def test_snapshot_refuses_mid_event_capture():
    from repro.sim.engine import SimulationError

    scenario = _walk()
    boom = {}

    def capture():
        try:
            snapshot_scenario(scenario)
        except SimulationError as exc:
            boom["error"] = exc

    scenario.sim.call_at(5.0, capture)
    scenario.sim.run_until(6.0)
    assert "error" in boom
