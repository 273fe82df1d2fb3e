"""The cross-baseline harness: grid shape, cell schema, classic gate."""

import json
import zlib
from pathlib import Path

import pytest

from repro.analysis.crossbase import (
    ALL_TRACKERS,
    ANALYTIC_TRACKERS,
    FAULTS,
    MESSAGE_TRACKERS,
    PRESETS,
    SCHEMA,
    run_analytic_cell,
    run_cross_baselines,
)
from repro.analysis.experiments import analytic_find_work, run_baseline_comparison
from repro.mobility.gen import preset_names

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


# ----------------------------------------------------------------------
# Differential table of the analytic cost models
# ----------------------------------------------------------------------
# Recorded before the four models shared one protocol: one
# ``crc32(json.dumps(cell, sort_keys=True))`` per analytic cell, ordered
# preset (``preset_names()``) x seed (1, 2, 3) x size ((4, 2), (10, 5)
# moves and finds); E8's (move, find) work per algorithm at r=2, 6 moves,
# 3 finds at distance 2; E2's (d, flooding, home-agent) find work.
GOLDEN_ANALYTIC_CELL_CRCS = {
    "flooding": (
        0xBF1C32C0, 0x84C0753E, 0x255DE08E, 0x5D916428, 0x5986DCEE, 0x182B14F4,
        0xC65CECAC, 0xCEFFDFD8, 0xDA60F1E3, 0xF66AB9D5, 0x03F0834B, 0x05F1A066,
        0x65DA9842, 0x75814791, 0x6AB1C09F, 0x0ABEEE12, 0x8BFAB2E1, 0x099AB8A4,
        0xFEF543E2, 0x8302AC6F, 0xC9AAD19A, 0xAFDE96DC, 0xCDEB116F, 0x04583601,
        0xDB440F6A, 0xF98BBA11, 0xAE20B2F6, 0x06B2B49F, 0x8B4DBCF1, 0xBCCACF34,
        0x61B33C72, 0x432022E0, 0xF3E695C4, 0x1EBC1933, 0x337D60B5, 0xFFF5E35A,
        0x22C0982F, 0xD3762B8B, 0x36CD2D82, 0x35E8F445, 0xA2EC3EF3, 0x0DB6FAFF,
        0xA94F1BB2, 0xE4222047, 0x5DA3AABE, 0x6B4AB686, 0xFB814775, 0x3333AC02,
        0x24770098, 0xBFA71429, 0x132892E0, 0x52665D88, 0xB9C20620, 0xA113D674,
        0x72C2AA31, 0x55B61058, 0x5C89C8B6, 0xB6DF061C, 0x129B7568, 0xC23DA4ED,
        0xFCAD7A95, 0x64F61EED, 0x634B2F4D, 0xE0A05205, 0x6F115DDF, 0x5D51AC1A,
        0x42BEB9A3, 0xBF6F3A11, 0x25A8D318, 0xE5B9A35B, 0x1A3E3423, 0x0EC4721F,
    ),
    "home-agent": (
        0xB105416E, 0x8E0E9005, 0x9C2C7130, 0x1A9D3B87, 0x008858D4, 0xA4E0CCF6,
        0xDADDD7DD, 0x4871B4E7, 0x05F0A388, 0x593A9765, 0x8B34F8ED, 0xE92F76A3,
        0xD3406B80, 0x82344CE5, 0x3ED9C3B5, 0xCD1F09F1, 0xB796CE08, 0x7935810E,
        0xE10BBB2E, 0xBB850829, 0x0F1772D2, 0xEBF7821A, 0x9C2CAEB1, 0x8871569D,
        0xEB2E6DE1, 0x98B7E087, 0x07D4D6DD, 0xB344590D, 0xDA51C765, 0x272D1921,
        0xA6D74984, 0x30D133D3, 0xB2D8DE6F, 0xD6B08F26, 0xC5DC0548, 0x38FE702A,
        0x4FA9061D, 0xD0280B1E, 0xB9668E1C, 0xFA4D723B, 0xBC5505BA, 0x4728A49E,
        0x54A1AA32, 0x7C1E4F95, 0x93645A14, 0x809BB85C, 0x235E9D19, 0x006161C0,
        0xB05BF41B, 0x96CCA7E8, 0x2FE98F7F, 0x7157FC41, 0x81B8671F, 0xB4C36E48,
        0xB8AFE6D4, 0xF3A952C7, 0x251E246B, 0xC131B148, 0x46CF82F6, 0xC0D7F1F2,
        0x235F1BF2, 0xC4966BD3, 0x4E411F5B, 0x32C1692F, 0xF625E8F0, 0xAB4A78CB,
        0x0B94509D, 0x96EF59B9, 0x68F45B3A, 0x3A16B679, 0x276CA6B1, 0x7C7632B9,
    ),
    "awerbuch-peleg": (
        0xD24CD094, 0x2E0E88F0, 0x3A9017AE, 0x16947D16, 0x3A5E089B, 0x419866B6,
        0xB914F6B5, 0xCC378493, 0xC7DBA9E9, 0xA72F7E1C, 0xD28B1D4C, 0xFABF0B6E,
        0x69C79ADD, 0xA32BF7F2, 0x91F5C763, 0x86768BC3, 0x145A3593, 0x0D8F42FF,
        0x0769713A, 0xFC7E23E2, 0x0769713A, 0xD9F8D29F, 0x29B27456, 0xCD0E513E,
        0xE0DB9264, 0xDCD27DB0, 0xF2C3EDE4, 0x99AA47F2, 0xC4199C13, 0x6F60A743,
        0x69B00812, 0x1DA390C7, 0xC2C25CB3, 0xE4E464C3, 0xBF011701, 0xFACA2126,
        0x20DF22F6, 0xE21EB0A7, 0xC1F266FC, 0x1DA9A914, 0xAE570351, 0x47995415,
        0x873B79BF, 0xEB65CDAB, 0x3510205F, 0x2268EE05, 0x318F8AC2, 0x65E21FC3,
        0x7D81D25A, 0xB0913BD2, 0xD9DC9DB5, 0x4BD8EA2E, 0x083327CF, 0x16482B70,
        0x8EEEAF16, 0x5742CDD8, 0x7578FA30, 0xC6929F64, 0x3D04C0A5, 0x7F6868C5,
        0x869B8B7B, 0x0608D46E, 0x4F8CF3D0, 0xD9923D01, 0xEE871013, 0x861BC9A0,
        0xD18C85F2, 0x0878566D, 0xFBCFF635, 0x26C199FD, 0x57DA43CE, 0x9E395E25,
    ),
    "passive-trace": (
        0xB84D6A0F, 0x19F79891, 0xB860ACD0, 0x77B6B52B, 0x99F970AF, 0x9BB8943D,
        0x3D26A514, 0x060AC46A, 0x7826B388, 0x538EFACA, 0x9A318BAE, 0xEF1F8F6F,
        0x2E0D6379, 0x36A6EED5, 0x92CBC7D2, 0x2378C0AD, 0x2EB551E7, 0xF83FAA0B,
        0x0EDB907B, 0x3A25DD3E, 0x66AE780C, 0xE8AFA7B0, 0x18C66ECD, 0xA521C733,
        0xFF383EBF, 0x1CDF0A54, 0xC696EE12, 0x79E7C445, 0xBAB8F3C4, 0xB9C8A180,
        0x6E4F6006, 0xC0085994, 0x9CF25A53, 0x7B9997CE, 0x16EF10A3, 0xCA849BC1,
        0xE1262FE1, 0x5E704089, 0x654B8E68, 0x30EBE7BE, 0x80628DE1, 0x142A1EEB,
        0x0542C8A8, 0x78F89B5B, 0x85CB0FF6, 0xE3A85895, 0x7DE2B80D, 0x5C662F14,
        0x0805CF7B, 0xD9732DE3, 0xC50B95CA, 0x0136C8E0, 0xAFD8A918, 0x6720ED83,
        0xDDEBBF12, 0x367C7299, 0x123BB3FA, 0x65BAA8C6, 0x7FD468BB, 0x97381FD6,
        0x98930605, 0x8E08348D, 0xFACA15AE, 0x368ECCA8, 0x211D0FC7, 0xF6B55C48,
        0xB62C94D4, 0xFA9F57B1, 0xB7B79814, 0x4F898AD9, 0x8BAE867C, 0x51CD3C8A,
    ),
}
GOLDEN_E8_TABLE = {
    (2, 1): ((100.0, 53.0), (12.0, 14.0), (54.0, 35.0), (0.0, 56.0)),
    (2, 2): ((66.0, 69.0), (12.0, 15.0), (54.0, 39.0), (0.0, 39.0)),
    (2, 3): ((106.0, 49.0), (17.0, 15.0), (66.0, 35.0), (0.0, 61.0)),
    (3, 1): ((106.0, 79.0), (25.0, 21.0), (78.0, 51.0), (0.0, 71.0)),
    (3, 2): ((66.0, 75.0), (26.0, 24.0), (78.0, 57.0), (0.0, 63.0)),
    (3, 3): ((94.0, 85.0), (24.0, 24.0), (84.0, 51.0), (0.0, 84.0)),
    (4, 1): ((106.0, 79.0), (53.0, 45.0), (102.0, 67.0), (0.0, 71.0)),
    (4, 2): ((66.0, 75.0), (54.0, 48.0), (102.0, 75.0), (0.0, 63.0)),
    (4, 3): ((94.0, 85.0), (51.0, 43.0), (110.0, 67.0), (0.0, 84.0)),
}
GOLDEN_E2_TABLE = {
    8: ((1, 9.0, 8.0), (2, 34.0, 8.0), (3, 98.0, 8.0), (5, 98.0, 8.0), (8, 98.0, 8.0), (13, 98.0, 8.0), (20, 98.0, 8.0)),
    16: ((1, 9.0, 16.0), (2, 34.0, 16.0), (3, 115.0, 16.0), (5, 371.0, 16.0), (8, 371.0, 16.0), (13, 371.0, 16.0), (20, 371.0, 16.0)),
    32: ((1, 9.0, 32.0), (2, 34.0, 32.0), (3, 115.0, 32.0), (5, 404.0, 32.0), (8, 404.0, 32.0), (13, 1428.0, 32.0), (20, 1428.0, 32.0)),
}


def test_analytic_cells_match_the_differential_table():
    for tracker, pinned in GOLDEN_ANALYTIC_CELL_CRCS.items():
        crcs = tuple(
            zlib.crc32(json.dumps(
                run_analytic_cell(tracker, preset, moves, finds, seed),
                sort_keys=True,
            ).encode())
            for preset in preset_names()
            for seed in (1, 2, 3)
            for moves, finds in ((4, 2), (10, 5))
        )
        assert crcs == pinned, tracker


def test_e8_and_e2_rows_match_the_differential_table():
    for (max_level, seed), pinned in GOLDEN_E8_TABLE.items():
        rows = run_baseline_comparison(
            2, max_level, n_moves=6, n_finds=3, find_distance=2, seed=seed
        )
        assert tuple((r.move_work, r.find_work) for r in rows) == pinned
    for side, pinned in GOLDEN_E2_TABLE.items():
        rows = analytic_find_work(side, [1, 2, 3, 5, 8, 13, 20])
        assert tuple(rows) == pinned, side
