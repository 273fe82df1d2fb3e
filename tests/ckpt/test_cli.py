"""The ``repro gen`` / ``run`` / ``bisect`` CLI surface: a run file, its
cuts, continuing a cut and bisecting two files."""

import json
from pathlib import Path

from repro.ckpt import CKPT_SCHEMA, load
from repro.cli import CLI_SCHEMA, main

GOLDEN = Path(__file__).parent / "golden" / "walk-r2-M2.ckpt"


def unwrap(raw: str, command: str) -> dict:
    """Parse a ``--json`` envelope and return its ``data`` block."""
    envelope = json.loads(raw)
    assert envelope["schema"] == CLI_SCHEMA
    assert envelope["command"] == command
    return envelope["data"]


def run_file(folder, name, *flags):
    """Write ``repro gen walk [flags]``'s run file; return its path."""
    path = str(folder / f"{name}.ckpt")
    assert main(["gen", "walk", *flags, "--out", path]) == 0
    return path


def cut(folder, at, *flags):
    """``gen walk [flags]``, then ``run --until at --out``: the cut's path."""
    path = str(folder / "cut.ckpt")
    walk = run_file(folder, "walk", *flags)
    assert main(["run", walk, "--until", str(at), "--out", path]) == 0
    return path


class TestSnapshotResume:
    def test_snapshot_then_resume_round_trips(self, tmp_path, capsys):
        path = cut(tmp_path, 25)
        out = capsys.readouterr().out
        assert CKPT_SCHEMA in out and path in out

        assert main(["run", path]) == 0
        out = capsys.readouterr().out
        assert "resumed" in out and "t=207" in out  # the walk's quiescence

    def test_a_cut_at_25_is_the_golden_artifact(self, tmp_path):
        # The committed artifact is this cut; it differs only in its
        # note, so in its digest.
        written, golden = load(cut(tmp_path, 25)), load(GOLDEN)
        assert written.payload == golden.payload
        assert (written.meta.sim_time, written.meta.events_fired) == (25.0, 19)
        assert written.meta.fingerprint == golden.meta.fingerprint
        assert f"{written.meta.note} golden-artifact" == golden.meta.note

    def test_resume_json_is_stable_across_invocations(self, tmp_path, capsys):
        path = cut(tmp_path, 12.5)
        capsys.readouterr()
        main(["run", path, "--json"])
        first = unwrap(capsys.readouterr().out, "run")
        main(["run", path, "--json"])
        second = unwrap(capsys.readouterr().out, "run")
        assert first == second
        assert first["resumed_from_t"] == 12.5
        assert first["ran_until"] == first["sim_time"] == 207.0  # quiescence

    def test_snapshot_with_loss_plan(self, tmp_path, capsys):
        path = cut(tmp_path, 25, "--loss", "0.3")
        capsys.readouterr()
        assert main(["run", path]) == 0


class TestBisect:
    def test_identical_variants(self, tmp_path, capsys):
        path = run_file(tmp_path, "walk")
        assert main(["bisect", path, path]) == 0
        assert "no divergence" in capsys.readouterr().out

    def test_seed_divergence_reported(self, tmp_path, capsys):
        a, b = run_file(tmp_path, "a"), run_file(tmp_path, "b", "--seed", "8")
        assert main(["bisect", a, b]) == 0
        out = capsys.readouterr().out
        assert "first divergence at event 13" in out
        assert "side A" in out and "side B" in out

    def test_json_report(self, tmp_path, capsys):
        a, b = run_file(tmp_path, "a"), run_file(tmp_path, "b", "--seed", "8")
        capsys.readouterr()
        assert main(["bisect", a, b, "--json"]) == 0
        report = unwrap(capsys.readouterr().out, "bisect")
        assert report["diverged"] is True
        assert (report["event_index"], report["events_compared"]) == (13, 14)
        assert (report["run_a"], report["run_b"]) == (a, b)

    def test_obs_on_side_b_does_not_diverge(self, tmp_path, capsys):
        path = run_file(tmp_path, "walk")
        capsys.readouterr()
        assert main(["bisect", path, path, "--obs", "--json"]) == 0
        report = unwrap(capsys.readouterr().out, "bisect")
        assert report["diverged"] is False
        assert report["run_b"] == f"{path} (obs on)"


class TestSharded:
    def test_the_walk_file_reports_the_pinned_counts(self, tmp_path, capsys):
        path = run_file(
            tmp_path, "walk", "--max-level", "3", "--seed", "11",
            "--moves", "8", "--finds", "4",
        )
        capsys.readouterr()
        assert main(["run", path, "--shards", "2", "--json"]) == 0
        data = unwrap(capsys.readouterr().out, "run")
        assert (data["events"], data["windows"], data["cross_shard_messages"]) == (
            343, 93, 20,
        )
        assert data["canonical_fingerprint"] == "1624cda5"
        assert data["fingerprint_match"] is True

    def test_a_file_without_exactly_one_script_is_refused(self, tmp_path, capsys):
        from repro.ckpt import save, snapshot_scenario
        from repro.scenario import ScenarioConfig, build

        path = str(tmp_path / "scriptless.ckpt")
        save(snapshot_scenario(build(ScenarioConfig(r=2, max_level=2))), path)
        for argv in (["run", path, "--shards", "2"], ["bisect", path, path]):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert "holds 0" in captured.err and captured.err.count("\n") == 1
            assert not captured.out
