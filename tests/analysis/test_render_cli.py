"""Tests for the ASCII renderer and the command-line interface."""

from pathlib import Path

import pytest

from repro.analysis.render import render_grid_world, render_path, render_pointer_stats
from repro.cli import main
from repro.core import VineStalk, capture_snapshot, init_state
from repro.hierarchy import grid_hierarchy, strip_hierarchy
from repro.mobility import FixedPath

TESTS = Path(__file__).resolve().parent.parent
GOLDEN_CKPT = str(TESTS / "ckpt" / "golden" / "walk-r2-M2.ckpt")
#: A file that exists and is not a checkpoint.
NOT_A_CKPT = str(TESTS / "__init__.py")


@pytest.fixture(scope="module")
def world():
    h = grid_hierarchy(3, 2)
    system = VineStalk(h)
    # Step once so the evader cell differs from the cluster heads at the
    # block center (which render as level digits).
    evader = system.make_evader(
        FixedPath([(4, 4), (3, 3)]), dwell=1e12, start=(4, 4)
    )
    system.run_to_quiescence()
    evader.step()
    system.run_to_quiescence()
    return h, capture_snapshot(system)


class TestRenderer:
    def test_grid_render_shows_evader_and_levels(self, world):
        h, snapshot = world
        art = render_grid_world(h, snapshot, (3, 3))
        assert "E" in art
        assert "2" in art  # the root head at the block center
        assert "|" in art and "-" in art  # block separators

    def test_grid_render_row_count(self, world):
        h, snapshot = world
        art = render_grid_world(h, snapshot, (3, 3))
        # 9 cell rows + 2 separator rows for 3x3 level-1 blocks.
        assert len(art.splitlines()) == 11

    def test_render_requires_grid(self):
        h = strip_hierarchy(3, 2)
        with pytest.raises(TypeError):
            render_grid_world(h, init_state(h, 4), 4)

    def test_render_path_lists_levels_and_links(self, world):
        h, snapshot = world
        text = render_path(h, snapshot)
        assert "terminated" in text
        assert "[root]" in text
        assert "[vertical]" in text

    def test_render_path_empty(self, world):
        h, _snapshot = world
        from repro.core import SystemSnapshot

        assert "no tracking path" in render_path(h, SystemSnapshot())

    def test_render_broken_path(self, world):
        h, snapshot = world
        broken = snapshot.copy()
        broken.pointers[h.cluster((4, 4), 1)].c = None
        assert "BROKEN" in render_path(h, broken)

    def test_pointer_stats(self, world):
        h, snapshot = world
        stats = render_pointer_stats(snapshot)
        assert "c=4" in stats  # root, level-1, level-0 junction + terminus
        assert "nbrptup=" in stats


class TestCli:
    def test_validate_grid(self, capsys):
        assert main(["validate", "--r", "2", "--max-level", "2"]) == 0
        assert "all §II-B requirements hold" in capsys.readouterr().out

    def test_validate_strip(self, capsys):
        assert main(["validate", "--r", "3", "--max-level", "2", "--strip"]) == 0
        assert "strip hierarchy" in capsys.readouterr().out

    def test_demo_runs(self, capsys):
        code = main(["demo", "--r", "2", "--max-level", "2", "--moves", "5",
                     "--finds", "1", "--seed", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "tracking path" in out
        assert "move work" in out
        assert "find from" in out

    def test_find_sweep_runs(self, capsys):
        assert main(["find", "--r", "2", "--max-level", "2"]) == 0
        assert "find cost by distance" in capsys.readouterr().out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestJsonEnvelope:
    """Every subcommand speaks the one repro-cli/1 envelope."""

    def unwrap(self, capsys, command):
        import json

        from repro.cli import CLI_SCHEMA

        envelope = json.loads(capsys.readouterr().out)
        assert envelope["schema"] == CLI_SCHEMA
        assert envelope["command"] == command
        return envelope["data"]

    def test_every_subcommand_has_the_json_flag(self):
        from repro.cli import COMMANDS, JSON

        assert all(JSON in command.all_flags() for command in COMMANDS)

    def test_per_command_defaults_survive_shared_parents(self):
        # Regression: a single shared parent parser plus per-subparser
        # set_defaults silently gave every command the defaults of the
        # subparser registered last (argparse parents share actions).
        from repro.cli import COMMANDS, _build_parser

        parser = _build_parser()
        worlds = {
            command.name: command.world
            for command in COMMANDS if command.world is not None
        }
        for name, world in worlds.items():
            args = parser.parse_args(name.split())
            assert (args.r, args.max_level, args.seed) == world
        assert worlds["demo"] == (3, 2, 7)
        assert worlds["find"] == (2, 4, 21)
        assert worlds["mobility"] == (2, 2, 11)

    def test_validate_envelope(self, capsys):
        assert main(["validate", "--r", "2", "--max-level", "2", "--json"]) == 0
        data = self.unwrap(capsys, "validate")
        assert data["valid"] is True
        assert data["regions"] == 16

    def test_validate_envelope_carries_failure(self, capsys, monkeypatch):
        from repro.hierarchy import validation

        def boom(*args, **kwargs):
            raise validation.HierarchyValidationError("synthetic failure")

        monkeypatch.setattr(validation, "validate_hierarchy", boom)
        assert main(["validate", "--r", "2", "--max-level", "2", "--json"]) == 1
        data = self.unwrap(capsys, "validate")
        assert data["valid"] is False
        assert "synthetic failure" in data["error"]

    def test_demo_envelope(self, capsys):
        assert main(["demo", "--r", "2", "--max-level", "2", "--moves", "2",
                     "--finds", "1", "--seed", "3", "--json"]) == 0
        data = self.unwrap(capsys, "demo")
        assert data["moves"] == 2
        assert len(data["finds"]) == 1
        assert data["move_work"] > 0

    def test_find_envelope(self, capsys):
        assert main(["find", "--r", "2", "--max-level", "2", "--json"]) == 0
        data = self.unwrap(capsys, "find")
        assert data["sweep"]
        assert all(
            {"distance", "mean_find_work"} <= set(row) for row in data["sweep"]
        )

    @pytest.mark.parametrize(
        "argv, needle",
        [
            (["baselines", "--presets", "nope"], "unknown presets: nope"),
            (["baselines", "--trackers", ""], "empty --trackers"),
            (["baselines", "--presets", ""], "empty --presets"),
            (["mobility", "--regimes", ""], "empty --regimes"),
            # Rejected by the flag's domain or deeper down (system
            # registry, ckpt loader): one error path.
            (["baselines", "--shards", "0"], "shards must be >= 1"),
            (["chaos", "--system", "bogus"], "unknown system 'bogus'"),
            (["gen", "service", "--objects", "0"], "n_objects must be >= 1"),
            (["find", "--r", "1"], "r must be >= 2"),
            (["run", "/nonexistent.ckpt"], "/nonexistent.ckpt"),
            (["bisect", GOLDEN_CKPT, NOT_A_CKPT], "not a checkpoint"),
            (["baselines", "--faults", "nope"], "unknown faults: nope"),
            (["baselines", "--faults", ""], "empty --faults"),
            # Out of the flag's declared domain: each of these ran to
            # exit 0 (or a traceback) before the table stated domains.
            (["gen", "walk", "--moves", "-1"], "moves must be >= 0"),
            (["gen", "service", "--rate", "0"], "rate must be > 0"),
            (["gen", "service", "--rate", "-1"], "rate must be > 0"),
            (["mobility", "--shards", "-1"], "shards must be >= 0"),
            (["demo", "--moves", "-3"], "moves must be >= 0"),
            (["gen", "walk", "--moves", "-1"], "moves must be >= 0"),
            (["gen", "walk", "--finds", "-1"], "finds must be >= 0"),
            # An analytic cost model is no world: each of these crashed
            # with an AttributeError (exit 1, a traceback).
            (["chaos", "--system", "flooding"], "unknown system 'flooding'"),
            (["chaos", "--system", "home_agent"], "unknown system 'home-agent'"),
            (["chaos", "--system", "passive-trace"],
             "unknown system 'passive-trace'"),
            # Ran zero cells and printed MATCH with exit 0.
            (["baselines", "--trackers", "flooding", "--faults", "loss"],
             "no fault axis"),
            # A flag that cannot act at the --shards given: a sharded run
            # starts at t=0 and writes no cut, a plain one has no backend.
            (["run", GOLDEN_CKPT, "--shards", "2", "--until", "30"],
             "--until cannot act with --shards 2"),
            (["run", GOLDEN_CKPT, "--shards", "1", "--out", "/nonexistent/c.ckpt"],
             "--out cannot act with --shards 1"),
            (["run", GOLDEN_CKPT, "--backend", "processes"],
             "--backend cannot act with --shards 0"),
            # Ran K=16 on the 16-region world, reporting shards 16.
            (["run", GOLDEN_CKPT, "--shards", "50"],
             "50 shards exceed this world's 16 regions"),
        ],
    )
    def test_bad_selection_rejected(self, capsys, argv, needle):
        # A bad selection must fail closed: one line, no traceback, and
        # no empty grid passing every gate vacuously with exit 0.
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert needle in captured.err and not captured.out
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err
        assert main([*argv, "--json"]) == 2
        command = " ".join(argv[:2]) if argv[0] == "gen" else argv[0]
        assert needle in self.unwrap(capsys, command)["error"]

    def test_corrupt_checkpoint_rejected(self, capsys, tmp_path):
        # The ckpt loader's typed refusal takes the same path.
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"garbage")
        assert main(["run", str(path), "--json"]) == 2
        assert "not a checkpoint" in self.unwrap(capsys, "run")["error"]
