"""The checkpoint envelope: strict format and compatibility checks.

Every corruption mode must be caught *before* any pickle byte is
trusted: bad magic, truncated header, wrong schema, malformed header,
short payload, fingerprint mismatch, foreign Python tag — and a flipped
bit anywhere in the magic, length or header (or a sampled payload
position) either fails closed or loads the same snapshot.  Plus the
payload's size over a long run.
"""

import json
import struct

import pytest

from repro.ckpt import (
    CKPT_MAGIC,
    CKPT_SCHEMA,
    CkptCompatError,
    CkptFormatError,
    Snapshot,
    SnapshotMeta,
    build_tracked_walk,
    load,
    restore_scenario,
    save,
    snapshot_scenario,
)
from repro.ckpt.snapshot import _digest, _python_tag
from repro.scenario import ScenarioConfig

CONFIG = ScenarioConfig(r=2, max_level=2, seed=7)


@pytest.fixture(scope="module")
def snapshot():
    scenario = build_tracked_walk(CONFIG)
    scenario.sim.run_until(25.0)
    return snapshot_scenario(scenario, note="format-test")


@pytest.fixture()
def ckpt_path(snapshot, tmp_path):
    path = tmp_path / "walk.ckpt"
    save(snapshot, path)
    return path


def _header_of(data):
    (header_len,) = struct.unpack(
        ">I", data[len(CKPT_MAGIC):len(CKPT_MAGIC) + 4]
    )
    start = len(CKPT_MAGIC) + 4
    return json.loads(data[start:start + header_len]), start, header_len


def _with_header(data, header, start, header_len, redigest=False):
    payload = data[start + header_len:]
    if redigest:  # a header that passes the digest check
        header = dict(header, fingerprint=_digest(
            SnapshotMeta.from_json_dict(header), payload
        ))
    blob = json.dumps(header, sort_keys=True).encode()
    return CKPT_MAGIC + struct.pack(">I", len(blob)) + blob + payload


class TestRoundTrip:
    def test_load_returns_equivalent_snapshot(self, snapshot, ckpt_path):
        loaded = load(ckpt_path)
        assert loaded.meta == snapshot.meta
        assert loaded.payload == snapshot.payload
        assert restore_scenario(loaded).config == CONFIG

    def test_meta_is_readable_without_unpickling(self, snapshot):
        assert snapshot.meta.schema == CKPT_SCHEMA
        assert snapshot.meta.sim_time == 25.0
        assert snapshot.meta.note == "format-test"
        assert snapshot.meta.fingerprint.startswith("sha256:")
        assert snapshot.meta.python == _python_tag()
        keys = snapshot.meta.topo_keys
        assert len(keys) == 1 and keys[0].kind == "grid"


class TestCorruption:
    def test_bad_magic(self, ckpt_path, tmp_path):
        bad = tmp_path / "bad-magic.ckpt"
        bad.write_bytes(b"not-a-ckpt\n" + ckpt_path.read_bytes())
        with pytest.raises(CkptFormatError, match="bad magic"):
            load(bad)

    def test_truncated_header(self, ckpt_path, tmp_path):
        bad = tmp_path / "truncated.ckpt"
        bad.write_bytes(ckpt_path.read_bytes()[:len(CKPT_MAGIC) + 2])
        with pytest.raises(CkptFormatError, match="truncated"):
            load(bad)

    def test_truncated_payload(self, ckpt_path, tmp_path):
        bad = tmp_path / "short.ckpt"
        bad.write_bytes(ckpt_path.read_bytes()[:-10])
        with pytest.raises(CkptFormatError, match="bytes"):
            load(bad)

    def test_flipped_payload_byte_fails_fingerprint(self, ckpt_path, tmp_path):
        data = bytearray(ckpt_path.read_bytes())
        data[-1] ^= 0xFF
        bad = tmp_path / "flipped.ckpt"
        bad.write_bytes(bytes(data))
        with pytest.raises(CkptFormatError, match="fingerprint"):
            load(bad)

    def test_wrong_schema(self, ckpt_path, tmp_path):
        data = ckpt_path.read_bytes()
        header, start, header_len = _header_of(data)
        header["schema"] = "ckpt/999"
        bad = tmp_path / "schema.ckpt"
        bad.write_bytes(_with_header(data, header, start, header_len))
        with pytest.raises(CkptFormatError, match="schema"):
            load(bad)

    def test_python_mismatch_is_compat_error(self, ckpt_path, tmp_path):
        data = ckpt_path.read_bytes()
        header, start, header_len = _header_of(data)
        header["python"] = "2.7"
        bad = tmp_path / "python.ckpt"
        bad.write_bytes(_with_header(data, header, start, header_len))
        with pytest.raises(CkptFormatError, match="fingerprint"):
            load(bad)  # the digest covers the tag
        bad.write_bytes(_with_header(data, header, start, header_len, True))
        with pytest.raises(CkptCompatError, match="2.7"):
            load(bad)

    @pytest.mark.parametrize("malform", [
        lambda h: h.pop("note"), lambda h: h.update(extra=1),
        lambda h: h.update(note=None), lambda h: h.update(sim_time="25.0"),
        lambda h: h.update(events_fired=1.5),
        lambda h: h.update(payload_bytes=True),
        lambda h: h.update(topo_keys=[{"kind": "grid", "r": 2}]),
        lambda h: h.update(topo_keys=["grid"]),
    ], ids=["missing-key", "unknown-key", "null-note", "str-time",
            "float-count", "bool-length", "short-topo-key", "str-topo-key"])
    def test_malformed_header(self, ckpt_path, tmp_path, malform):
        data = ckpt_path.read_bytes()
        header, start, header_len = _header_of(data)
        malform(header)
        bad = tmp_path / "malformed.ckpt"
        bad.write_bytes(_with_header(data, header, start, header_len))
        with pytest.raises(CkptFormatError, match="header") as refused:
            load(bad)
        assert "fails its fingerprint" not in str(refused.value)  # refused first

    def test_every_flipped_bit_fails_closed_or_loads_the_same(
        self, snapshot, ckpt_path, tmp_path
    ):
        """Every bit of magic, length and header, and every 97th payload
        byte's low bit: :class:`CkptFormatError`, or the same snapshot."""
        data = ckpt_path.read_bytes()
        _, start, header_len = _header_of(data)
        flips = [(pos, 1 << bit) for pos in range(start + header_len)
                 for bit in range(8)]
        flips += [(pos, 1) for pos in range(start + header_len, len(data), 97)]
        bad, outcomes = tmp_path / "flipped.ckpt", {"refused": 0, "same": 0}
        for pos, mask in flips:
            flipped = bytearray(data)
            flipped[pos] ^= mask
            bad.write_bytes(bytes(flipped))
            try:
                loaded = load(bad)
            except CkptFormatError:
                outcomes["refused"] += 1
                continue
            assert (loaded.meta, loaded.payload) == (
                snapshot.meta, snapshot.payload
            ), (pos, mask)
            outcomes["same"] += 1
        assert outcomes["refused"] > 0.99 * len(flips), outcomes

    def test_undecodable_payload_is_a_format_error(self, snapshot):
        meta = snapshot.meta
        with pytest.raises(CkptFormatError, match="corrupt"):
            restore_scenario(Snapshot(meta=meta, payload=b"not a pickle"))


class TestCheckpointSize:
    def test_tracked_walk_snapshot_does_not_grow_with_events(self):
        """A ``repro snapshot`` payload holds the world, not the run so far.

        On a 4-region world the walk has sent over every route by t=105;
        from there, 7x the events fired leave the payload within 1 % —
        what a run records about itself is O(1) (the send CRC), and the
        rest of the walk is one queued event, not one per move.
        """
        scenario = build_tracked_walk(CONFIG.with_(max_level=1), moves=80)
        sizes = {}
        for t in (105.0, 795.0):
            scenario.sim.run_until(t)
            sizes[scenario.sim.events_fired] = len(snapshot_scenario(scenario).payload)
        (early, small), (late, large) = sorted(sizes.items())
        assert late >= 7 * early
        assert large <= small * 1.01, sizes


def test_snapshot_refuses_mid_event_capture():
    from repro.sim.engine import SimulationError

    scenario = build_tracked_walk(CONFIG)
    boom = {}

    def capture():
        try:
            snapshot_scenario(scenario)
        except SimulationError as exc:
            boom["error"] = exc

    scenario.sim.call_at(5.0, capture)
    scenario.sim.run_until(6.0)
    assert "error" in boom
