"""The cross-baseline harness: grid shape, cell schema, classic gate."""

import json
from pathlib import Path

import pytest

from repro.analysis.crossbase import (
    ALL_TRACKERS,
    ANALYTIC_TRACKERS,
    FAULTS,
    MESSAGE_TRACKERS,
    PRESETS,
    SCHEMA,
    run_cross_baselines,
)

COMMITTED = Path(__file__).resolve().parents[2] / "BENCH_baselines.json"

#: Every cell must position its tracker on all four score axes.
CELL_KEYS = (
    "tracker", "preset", "fault", "kind", "finds_issued",
    "finds_completed", "find_latency", "message_work", "handovers",
    "energy", "preconfig", "engines", "fingerprint_match",
)


@pytest.fixture(scope="module")
def payload():
    # The quick grid: every tracker x every preset, fault axis off.
    return run_cross_baselines(n_moves=4, n_finds=2)


def test_registry_breadth():
    assert len(ALL_TRACKERS) >= 6
    assert len(PRESETS) >= 3
    assert set(MESSAGE_TRACKERS).isdisjoint(ANALYTIC_TRACKERS)


def test_grid_is_complete(payload):
    assert payload["schema"] == SCHEMA
    cells = payload["cells"]
    assert len(cells) == len(ALL_TRACKERS) * len(PRESETS)
    combos = {(c["tracker"], c["preset"]) for c in cells}
    assert combos == {
        (t, p) for t in ALL_TRACKERS for p in PRESETS
    }


def test_every_cell_reports_all_axes(payload):
    for cell in payload["cells"]:
        for key in CELL_KEYS:
            assert key in cell, (cell["tracker"], cell["preset"], key)
        assert cell["finds_issued"] > 0
        assert set(cell["message_work"]) == {
            "move", "find", "other", "total"
        }
        assert cell["message_work"]["total"] >= 0.0
        assert "mean" in cell["find_latency"]
        assert {"total", "summary"} <= set(cell["handovers"])
        energy = cell["energy"]
        assert energy["total_energy"] == pytest.approx(
            energy["charged_energy"] + energy["idle_energy"]
        )
        assert energy["total_energy"] > 0.0


def test_cell_kinds_split_by_family(payload):
    for cell in payload["cells"]:
        if cell["tracker"] in MESSAGE_TRACKERS:
            assert cell["kind"] == "message"
            assert cell["engines"] is not None
            assert cell["fingerprint_match"] is not None
        else:
            assert cell["kind"] == "analytic"
            assert cell["engines"] is None
            assert cell["fingerprint_match"] is None


def test_classic_cells_engine_invariant(payload):
    classic = [
        c for c in payload["cells"] if c["tracker"] == "vinestalk"
    ]
    assert classic
    assert all(c["fingerprint_match"] for c in classic)
    assert payload["all_classic_match"] is True
    for cell in classic:
        engines = cell["engines"]
        assert engines["plain"] == engines["sharded"]
        assert engines["shards"] >= 2
        assert engines["sharded_energy_total"] == pytest.approx(
            cell["energy"]["totals"]["total"]
        )


def test_predictive_cells_carry_preconfig(payload):
    for cell in payload["cells"]:
        if cell["tracker"] != "predictive":
            continue
        summary = cell["preconfig"]
        assert summary is not None
        assert summary["received"] == (
            summary["correct"] + summary["wasted"]
        )


def test_unknown_tracker_rejected():
    with pytest.raises(ValueError):
        run_cross_baselines(trackers=("vinestalk", "nope"))


def test_fault_axis_covers_message_trackers_only():
    # Stable fault draws are K-invariant, so the loss cell must still
    # match across engines; analytic models have no channel to perturb.
    payload = run_cross_baselines(
        trackers=("vinestalk", "flooding"), presets=("uniform-walk",),
        faults=("none", "loss"), n_moves=4, n_finds=2,
    )
    cells = {(c["tracker"], c["fault"]): c for c in payload["cells"]}
    assert set(cells) == {
        ("vinestalk", "none"), ("vinestalk", "loss"), ("flooding", "none"),
    }
    assert cells["vinestalk", "loss"]["fingerprint_match"] is True


def test_grid_is_seed_deterministic():
    kwargs = dict(
        trackers=("vinestalk",), presets=("uniform-walk",),
        n_moves=4, n_finds=2,
    )
    first = run_cross_baselines(**kwargs)
    second = run_cross_baselines(**kwargs)
    assert first["cells"] == second["cells"]


def test_committed_grid_is_the_regenerated_one():
    # On a mismatch: python -m repro baselines --faults none,loss
    #   --moves 10 --finds 5 --out BENCH_baselines.json
    committed = json.loads(COMMITTED.read_text())
    grid = committed["grid"]
    assert tuple(grid["faults"]) == FAULTS
    regenerated = run_cross_baselines(
        trackers=grid["trackers"], presets=grid["presets"],
        faults=grid["faults"], n_moves=grid["n_moves"],
        n_finds=grid["n_finds"], seed=grid["seed"], shards=grid["shards"],
    )
    assert json.loads(json.dumps(regenerated)) == committed
