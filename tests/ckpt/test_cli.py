"""The ``repro snapshot`` / ``resume`` / ``bisect`` CLI surface."""

import json

from repro.ckpt import CKPT_SCHEMA
from repro.cli import CLI_SCHEMA, main


def unwrap(raw: str, command: str) -> dict:
    """Parse a ``--json`` envelope and return its ``data`` block."""
    envelope = json.loads(raw)
    assert envelope["schema"] == CLI_SCHEMA
    assert envelope["command"] == command
    return envelope["data"]


class TestSnapshotResume:
    def test_snapshot_then_resume_round_trips(self, tmp_path, capsys):
        path = str(tmp_path / "walk.ckpt")
        assert main(["snapshot", "--out", path]) == 0
        out = capsys.readouterr().out
        assert CKPT_SCHEMA in out and path in out

        assert main(["resume", path]) == 0
        out = capsys.readouterr().out
        assert "resumed" in out and "t=207" in out  # the walk's quiescence

    def test_resume_json_is_stable_across_invocations(self, tmp_path, capsys):
        path = str(tmp_path / "walk.ckpt")
        main(["snapshot", "--out", path, "--at", "12.5"])
        capsys.readouterr()
        main(["resume", path, "--json"])
        first = unwrap(capsys.readouterr().out, "resume")
        main(["resume", path, "--json"])
        second = unwrap(capsys.readouterr().out, "resume")
        assert first == second
        assert first["resumed_from_t"] == 12.5
        assert first["ran_until"] == first["sim_time"] == 207.0  # quiescence

    def test_snapshot_with_loss_plan(self, tmp_path, capsys):
        path = str(tmp_path / "lossy.ckpt")
        assert main(["snapshot", "--out", path, "--loss", "0.3"]) == 0
        capsys.readouterr()
        assert main(["resume", path]) == 0


class TestBisect:
    def test_identical_variants(self, capsys):
        assert main(["bisect", "--a", "base", "--b", "base"]) == 0
        assert "no divergence" in capsys.readouterr().out

    def test_seed_divergence_reported(self, capsys):
        assert main(["bisect", "--a", "base", "--b", "seed:8"]) == 0
        out = capsys.readouterr().out
        assert "first divergence at event" in out
        assert "side A" in out and "side B" in out

    def test_json_report(self, capsys):
        assert main(["bisect", "--a", "base", "--b", "seed:8", "--json"]) == 0
        report = unwrap(capsys.readouterr().out, "bisect")
        assert report["diverged"] is True
        assert isinstance(report["event_index"], int)
        assert report["variant_b"] == "seed:8"
