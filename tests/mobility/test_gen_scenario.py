"""Integration wiring of the generator framework: ScenarioConfig's
``mobility=`` field, generated deployments, the sweep runner entry and
the ``repro mobility`` CLI subcommand."""

import json
import pickle
import random

import pytest

from repro.cli import main
from repro.mobility.gen import (
    Convoy,
    GeneratedWalk,
    HotspotNodes,
    Walk,
    mobility_jobs,
    preset_names,
    run_mobility_regime,
)
from repro.mobility.gen.models import MaskedModel
from repro.scenario import ScenarioConfig, build
from repro.sim.engine import Simulator
from repro.topo.cache import shared_grid_hierarchy


# ----------------------------------------------------------------------
# ScenarioConfig.mobility
# ----------------------------------------------------------------------
def test_config_validates_mobility_eagerly():
    with pytest.raises(KeyError, match="uniform-walk"):
        ScenarioConfig(r=2, max_level=2, mobility="no-such-regime")
    with pytest.raises(TypeError, match="preset name or GeneratorSpec"):
        ScenarioConfig(r=2, max_level=2, mobility=3.14)


def test_build_resolves_the_mobility_regime():
    config = ScenarioConfig(r=2, max_level=2, seed=7, mobility="gauntlet")
    scenario = build(config)
    assert isinstance(scenario.mobility_spec, Convoy)
    assert isinstance(scenario.mobility_model, MaskedModel)
    evader = scenario.system.make_evader(
        scenario.mobility_model, dwell=100.0, rng=random.Random(7)
    )
    for _ in range(4):
        evader.step()
    assert evader.moves_made == 4
    assert evader.stays_made == 0


def test_build_without_mobility_keeps_the_classic_path():
    scenario = build(ScenarioConfig(r=2, max_level=1))
    assert scenario.mobility_spec is None
    assert scenario.mobility_model is None


def test_mobility_configs_pickle_and_compare_equal():
    config = ScenarioConfig(
        r=2, max_level=2, seed=3, mobility=Convoy(leader=Walk(), followers=2)
    )
    assert pickle.loads(pickle.dumps(config)) == config
    named = ScenarioConfig(r=2, max_level=2, mobility="dither")
    assert pickle.loads(pickle.dumps(named)).mobility == "dither"


def test_same_seed_builds_resolve_identical_models():
    config = ScenarioConfig(r=2, max_level=2, seed=5, mobility="hotspot-churn")
    a = build(config).mobility_model
    b = build(config).mobility_model
    assert a is not b
    assert a.pool == b.pool and a.period == b.period


# ----------------------------------------------------------------------
# Generated deployments
# ----------------------------------------------------------------------
def test_generated_deployment_places_the_fleet():
    from repro.physical.deployment import generated

    hierarchy = shared_grid_hierarchy(2, 2)
    sim = Simulator()
    nodes = generated(
        sim,
        hierarchy.tiling,
        HotspotNodes(total=12, hotspots=((0, 0),)),
        random.Random(0),
        start_id=100,
    )
    assert len(nodes) == 12
    assert [n.node_id for n in nodes] == list(range(100, 112))
    regions = [n.region for n in nodes]
    assert regions == sorted(regions)  # region-sorted placement order
    assert (0, 0) in regions


# ----------------------------------------------------------------------
# GeneratedWalk protocol workload + sweep runner
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


def test_mobility_jobs_sweep_covers_every_preset():
    from repro.analysis.parallel import SweepRunner

    jobs = mobility_jobs(regimes=["uniform-walk", "dither"], n_moves=4, n_finds=2)
    assert len(jobs) == 2
    results = SweepRunner(workers=1, mode="serial").run(jobs)
    for job_result in results:
        assert job_result.value.speed_ok
        assert job_result.value.finds_completed == 2
    full = mobility_jobs(n_moves=4)
    assert len(full) == len(preset_names())


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
