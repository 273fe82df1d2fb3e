"""The ``ckpt/3`` envelope: strict format and compatibility checks.

Every corruption mode must be caught *before* any pickle byte is
trusted: bad magic, truncated header, wrong schema, short payload,
fingerprint mismatch, foreign Python tag.  Plus the ``resume_from``
config-compatibility gate.
"""

import json
import struct

import pytest

from repro.ckpt import (
    CKPT_MAGIC,
    CKPT_SCHEMA,
    CkptCompatError,
    CkptFormatError,
    build_tracked_walk,
    load,
    save,
    snapshot_scenario,
)
from repro.ckpt.snapshot import _python_tag
from repro.scenario import ScenarioConfig, build

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


def _with_header(data, header, start, header_len):
    blob = json.dumps(header, sort_keys=True).encode()
    return (
        CKPT_MAGIC + struct.pack(">I", len(blob)) + blob
        + data[start + header_len:]
    )


class TestRoundTrip:
    def test_load_returns_equivalent_snapshot(self, snapshot, ckpt_path):
        loaded = load(ckpt_path)
        assert loaded.meta == snapshot.meta
        assert loaded.config == snapshot.config
        assert loaded.payload == snapshot.payload

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
        with pytest.raises(CkptCompatError, match="2.7"):
            load(bad)
        # the escape hatch still loads (payload bytes are genuinely ours)
        loaded = load(bad, allow_python_mismatch=True)
        assert loaded.meta.python == "2.7"


class TestResumeFromCompat:
    def test_defaults_config_resumes_anything(self, snapshot):
        scenario = build(ScenarioConfig(resume_from=snapshot))
        assert scenario.sim.now == 25.0
        # the snapshot's config wins
        assert scenario.config == CONFIG

    def test_matching_config_resumes(self, snapshot):
        scenario = build(snapshot.config.with_(resume_from=snapshot))
        assert scenario.sim.now == 25.0

    def test_mismatched_config_raises(self, snapshot):
        with pytest.raises(CkptCompatError, match="mismatch"):
            build(CONFIG.with_(seed=1234, resume_from=snapshot))
        with pytest.raises(CkptCompatError, match="mismatch"):
            build(ScenarioConfig(r=3, max_level=3, resume_from=snapshot))

    def test_resume_from_path(self, snapshot, tmp_path):
        path = tmp_path / "resume.ckpt"
        save(snapshot, path)
        scenario = build(ScenarioConfig(resume_from=str(path)))
        assert scenario.sim.now == 25.0


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
