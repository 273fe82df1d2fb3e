"""Integration wiring of the generator framework: the ``GeneratedWalk``
workload, the regime runner and the ``repro mobility`` CLI subcommand."""

import json

import pytest

from repro.cli import main
from repro.mobility.gen import (
    GeneratedWalk,
    Walk,
    preset_names,
    run_mobility_regime,
)


# ----------------------------------------------------------------------
# GeneratedWalk protocol workload + regime runner
# ----------------------------------------------------------------------
def test_generated_walk_is_a_pure_function_of_seed():
    walk = GeneratedWalk(mobility="uniform-walk", n_moves=5, n_finds=2)
    assert walk.events(3) == walk.events(3)
    assert walk.events(3) != walk.events(4)


def test_run_mobility_regime_accepts_spec_objects():
    result = run_mobility_regime(Walk(), n_moves=4, n_finds=2)
    assert result.regime == "Walk"
    assert result.speed_ok


def test_run_mobility_regime_rejects_a_negative_shard_count():
    # shards=-1 used to run, skip the cross-check and report DIVERGED.
    with pytest.raises(ValueError):
        run_mobility_regime("dither", n_moves=4, n_finds=2, shards=-1)


# ----------------------------------------------------------------------
# CLI: repro mobility
# ----------------------------------------------------------------------
def _run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_cli_mobility_list_names_every_regime(capsys):
    code, out = _run_cli(capsys, "mobility", "--list", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "repro-cli/1"
    assert payload["command"] == "mobility"
    assert set(payload["data"]["regimes"]) == set(preset_names())


def test_cli_mobility_rejects_unknown_regimes(capsys):
    code = main(["mobility", "--regimes", "nope"])
    assert code == 2


def test_cli_mobility_json_envelope_and_cross_engine_check(capsys):
    code, out = _run_cli(
        capsys,
        "mobility",
        "--regimes", "uniform-walk,gauntlet",
        "--moves", "5",
        "--finds", "2",
        "--shards", "1",
        "--json",
    )
    assert code == 0
    payload = json.loads(out)
    data = payload["data"]
    assert data["all_speed_ok"] is True
    assert data["all_fingerprints_match"] is True
    assert [row["regime"] for row in data["regimes"]] == ["uniform-walk", "gauntlet"]
    for row in data["regimes"]:
        assert row["finds_completed"] == row["finds_issued"] == 2
        assert row["fingerprint_match"] is True
        assert row["sharded_fingerprint"] == row["canonical_fingerprint"]
        assert row["min_dwell"] > 0
        assert sum(row["touched_levels"].values()) > 0


def test_cli_mobility_human_table(capsys):
    code, out = _run_cli(capsys, "mobility", "--regimes", "dither", "--moves", "4")
    assert code == 0
    assert "regime" in out and "dither" in out and "ok" in out
