"""Golden determinism pins for the composed "gauntlet" scenario.

The gauntlet preset is the ISSUE's committed composed generator —
``Convoy(leader=Obstacles(inner=Hotspots(...), density=0.12))`` — a
convoy threading hotspot churn through an obstacle field.  These
constants pin, forever:

* the byte-exact trace content (per-object CRCs) for ``seed=11`` on the
  r=2 / M=2 world, and
* the dispatch fingerprint of the resulting script on the plain
  reference engine and on the sharded engine at K ∈ {1, 2}.

If an intentional change to the generator, the rng discipline, or the
engines shifts these values, regenerate them with::

    PYTHONPATH=src python - <<'EOF'
    from repro.mobility.gen import generate, preset, run_mobility_regime
    from repro.topo.cache import shared_grid_hierarchy
    traces = generate(preset("gauntlet"), shared_grid_hierarchy(2, 2), 8, seed=11)
    print([f"0x{t.crc():08x}" for t in traces])
    print(run_mobility_regime("gauntlet", seed=11, n_moves=8, n_finds=4, shards=2))
    EOF

and say why in CHANGES.md — a silent drift here is a determinism bug.
"""

import random
import zlib

import pytest

from repro.mobility.gen import (
    Compose,
    Convoy,
    Dither,
    Hotspots,
    Obstacles,
    Replay,
    Switch,
    TimeSlice,
    Walk,
    WaypointGraph,
    generate,
    preset,
    preset_names,
    run_mobility_regime,
)
from repro.topo.cache import shared_grid_hierarchy

GOLDEN_SEED = 11
GOLDEN_MOVES = 8
GOLDEN_FINDS = 4

#: Per-object trace CRCs: leader + 2 convoy followers.
GOLDEN_TRACE_CRCS = (0x6F6C839C, 0x1C3873CE, 0xC5E17780)

#: Reference-engine dispatch fingerprints for the frozen script.
GOLDEN_CANONICAL = "e9cde03b"
GOLDEN_EXACT = "77203e46"


@pytest.fixture(scope="module")
def gauntlet_traces():
    hierarchy = shared_grid_hierarchy(2, 2)
    return generate(preset("gauntlet"), hierarchy, GOLDEN_MOVES, seed=GOLDEN_SEED)


def test_gauntlet_trace_crcs_are_pinned(gauntlet_traces):
    assert tuple(t.crc() for t in gauntlet_traces) == GOLDEN_TRACE_CRCS


def test_gauntlet_is_a_convoy_of_three(gauntlet_traces):
    leader, *followers = gauntlet_traces
    assert len(followers) == 2
    for follower in followers:
        assert follower.regions == leader.regions[: len(follower.regions)]


def test_gauntlet_plain_engine_fingerprint_is_pinned():
    result = run_mobility_regime(
        "gauntlet", seed=GOLDEN_SEED, n_moves=GOLDEN_MOVES, n_finds=GOLDEN_FINDS
    )
    assert result.canonical_fingerprint == GOLDEN_CANONICAL
    assert result.exact_fingerprint == GOLDEN_EXACT
    assert result.speed_ok, result.speed_violation
    assert result.finds_completed == result.finds_issued == GOLDEN_FINDS


@pytest.mark.parametrize("shards", [1, 2])
def test_gauntlet_sharded_engines_match_the_pin(shards):
    result = run_mobility_regime(
        "gauntlet",
        seed=GOLDEN_SEED,
        n_moves=GOLDEN_MOVES,
        n_finds=GOLDEN_FINDS,
        shards=shards,
    )
    assert result.fingerprint_match is True
    assert result.sharded_fingerprint == GOLDEN_CANONICAL
    assert result.canonical_fingerprint == GOLDEN_CANONICAL


# ----------------------------------------------------------------------
# Differential table: every preset plus 200 seeded random trees
# ----------------------------------------------------------------------
DIFF_TREES = 200
DIFF_WORLDS = ((2, 1), (2, 2), (3, 1), (3, 2))
DIFF_SEEDS = (3, 17)
#: ``(mode, base_dwell)``: both §VI modes, plus a slow clock under
#: which the speed profiles show in the dwells.
DIFF_CLOCKS = (("concurrent", None), ("atomic", None), ("concurrent", 30.0))
DIFF_MOVES = 6
#: The 2x2 corner every world has, in cycle order.
CORNER = ((0, 0), (0, 1), (1, 1), (1, 0))


def _replay(rng):
    at = rng.randrange(4)
    path = [CORNER[at]]
    for _ in range(rng.randint(1, 5)):
        at = (at + rng.choice((1, 3))) % 4
        path.append(CORNER[at])
    return Replay(steps=tuple((float(i), r) for i, r in enumerate(path)))


def _leaf(rng):
    kind = rng.randrange(6)
    if kind == 0:
        return Walk()
    if kind == 1:
        return Dither()
    if kind == 2:
        return Hotspots(k=rng.randint(1, 3), period=rng.randint(1, 5))
    if kind == 3:
        k = rng.randint(2, 4)
        if rng.random() < 0.5:
            return WaypointGraph(k=k)
        edges = tuple((i, (i + 1) % k) for i in range(k))
        speeds = tuple(rng.choice((0.5, 1.0, 2.0, 3.0)) for _ in edges)
        return WaypointGraph(k=k, edges=edges, speeds=speeds)
    if kind == 4:
        return WaypointGraph(nodes=tuple(rng.sample(CORNER, rng.randint(2, 4))))
    return _replay(rng)


def _tree(rng, depth=2):
    if depth == 0 or rng.random() < 0.3:
        return _leaf(rng)
    kind = rng.randrange(5)
    if kind == 0:
        inner = _tree(rng, depth - 1)
        if rng.random() < 0.5:
            return Obstacles(inner=inner, regions=(rng.choice(CORNER),))
        return Obstacles(inner=inner, density=rng.choice((0.05, 0.15, 0.25)))
    if kind == 4:
        return Convoy(
            leader=_tree(rng, depth - 1),
            followers=rng.randint(1, 2),
            offset=rng.randint(1, 2),
        )
    parts = tuple(_tree(rng, depth - 1) for _ in range(rng.randint(2, 3)))
    if kind == 1:
        weights = tuple(rng.choice((0.5, 1.0, 2.0)) for _ in parts)
        return Compose(parts=parts, weights=weights if rng.random() < 0.5 else ())
    if kind == 2:
        return Switch(parts=parts, every=rng.randint(1, 4))
    bounds = tuple(sorted(rng.sample(range(1, 7), len(parts) - 1)))
    return TimeSlice(parts=parts, boundaries=bounds)


def _differential_specs():
    rng = random.Random(34)
    trees = [_tree(rng) for _ in range(DIFF_TREES)]
    return [preset(name) for name in preset_names()] + trees


def _differential_cases():
    for world in DIFF_WORLDS:
        for seed in DIFF_SEEDS:
            for mode, base_dwell in DIFF_CLOCKS:
                yield world, seed, mode, base_dwell


def _differential_run(spec, case):
    world, seed, mode, base_dwell = case
    return generate(
        spec,
        shared_grid_hierarchy(*world),
        DIFF_MOVES,
        seed=seed,
        mode=mode,
        base_dwell=base_dwell,
    )


def _fold(crc, index, traces):
    return zlib.crc32(repr((index, [t.crc() for t in traces])).encode(), crc)


#: One row per :func:`_differential_specs` entry, recorded before the
#: generator specs walked themselves: the CRC folded over every case the
#: recording ran, and one character per case of
#: :func:`_differential_cases` — ``.`` ran, ``V`` refused with a
#: ``ValueError``, ``K`` failed with a bare ``KeyError`` from the tiling
#: (a replayed path crossing an obstacle mask; refused with a
#: ``ValueError`` since), ``S`` a ``Replay`` under a combinator ran out
#: and the run raised (its trace ends there since).
DIFFERENTIAL = (
    (0xF92246CF, "........................"),
    (0xF8FB1605, "........................"),
    (0x49322001, "........................"),
    (0x809BCD65, "........................"),
    (0x1A3F7FBE, "........................"),
    (0x6EDD8C20, "........................"),
    (0x450AE3B5, "........................"),
    (0x9AC3B66B, "........................"),
    (0xE448FBF9, "........................"),
    (0x1D910134, "........................"),
    (0xF2A55384, "........................"),
    (0xB12546B3, "........................"),
    (0x4F6ADB04, "........................"),
    (0x5207450B, "......VVVVVV...VVVVVVVVV"),
    (0x832646C8, "........................"),
    (0x6F8D0A78, "........................"),
    (0x73026BAE, "........................"),
    (0xF08D88F7, "........................"),
    (0x05665639, "........................"),
    (0xCB68A847, "........................"),
    (0x3344F9C3, "........................"),
    (0x6D1C02D6, "........................"),
    (0xC5F44402, "SSSSSS......SSS........."),
    (0x36B09578, "........................"),
    (0x17AA385B, "........................"),
    (0xF8FB1605, "........................"),
    (0x6969855A, "........................"),
    (0x6F8D0A78, "........................"),
    (0x57651B0E, "SSS...SSS...SSS...SSS..."),
    (0x54832B93, "........................"),
    (0xBF41A176, "........................"),
    (0x00000000, "VVVVVVVVVVVVVVVVVVVVVVVV"),
    (0xBA5F07A7, "........................"),
    (0x70106499, "........................"),
    (0x87F51B6F, "........................"),
    (0x98566404, "........................"),
    (0xC66567BC, "........................"),
    (0x65BCB7AE, "........................"),
    (0x64B77CD6, "........................"),
    (0x3AF71E89, "........................"),
    (0xB7E96916, "...............SSS......"),
    (0x33A01305, "........................"),
    (0x5B536282, "........................"),
    (0x3D2148AE, "...............SSS......"),
    (0xB2EB009E, "........................"),
    (0x8F8305EE, "........................"),
    (0x1D910134, "........................"),
    (0xAABC8786, "........................"),
    (0xE28A3C14, "........................"),
    (0x1E3E8972, "........................"),
    (0xB6D2375D, "........................"),
    (0xADEDD124, "........................"),
    (0x00000000, "VVVVVVVVVVVVVVVVVVVVVVVV"),
    (0x809BCD65, "........................"),
    (0x97A58E46, "........................"),
    (0x544F0B38, "........................"),
    (0x809BCD65, "........................"),
    (0x00000000, "SSSSSSSSSSSSSSSSSSSSSSSS"),
    (0x7324B068, "VVV...VVVVVV.........VVV"),
    (0xAA023FE8, "........................"),
    (0xEF65EEA6, "........................"),
    (0xBA60A03C, "........................"),
    (0x4E0BAB64, "........................"),
    (0xF8607C23, "........................"),
    (0x1E190648, "........................"),
    (0x00000000, "VVVVVVVVVVVVVVVVVVVVVVVV"),
    (0x853FFFD5, "........................"),
    (0xE04C6510, "........................"),
    (0x77DC3DC8, "........................"),
    (0xC6BB8D6D, "........................"),
    (0xB9965F67, "........................"),
    (0xB17CDBEE, "........................"),
    (0x63DB34A8, "........................"),
    (0x1D910134, "........................"),
    (0xD4C6536E, "........................"),
    (0x2049882E, "........................"),
    (0x1D910134, "........................"),
    (0x2C03E998, "........................"),
    (0xB388DF83, "........................"),
    (0x809BCD65, "........................"),
    (0xDDDCE45B, "........................"),
    (0x873370D0, "........................"),
    (0x7C872868, "........................"),
    (0x0CCAA918, "........................"),
    (0xB1C98C34, "........................"),
    (0xF2A55384, "........................"),
    (0xC547081B, "........................"),
    (0x5B8AAF35, "........................"),
    (0x7EFE0A5A, "........................"),
    (0xB997482E, "........................"),
    (0x90E33B73, "........................"),
    (0x1C09424C, "........................"),
    (0x0F6689DC, "........................"),
    (0x322A161A, "........................"),
    (0x1D910134, "........................"),
    (0x593AA080, "........................"),
    (0x958ACB87, "........................"),
    (0xF8FB1605, "........................"),
    (0x00000000, "VVVVVVVVVVVVVVVVVVVVVVVV"),
    (0x4CA7D2C4, "........................"),
    (0x809BCD65, "........................"),
    (0x5FDF1122, "........................"),
    (0x36BDC93D, "........................"),
    (0x00000000, "VVVVVVVVVVVVVVVVVVVVVVVV"),
    (0x86AA1DB8, "........................"),
    (0x13C43A26, "........................"),
    (0xE11163E1, "......VVVVVVVVVVVV......"),
    (0x13E9FF9F, "........................"),
    (0x3E7384A5, "VVVVVVVVVVVVVVVVVVVVV..."),
    (0x00000000, "SSSSSSVVVVVVSSSVVVSSSVVV"),
    (0x920E92DD, "........................"),
    (0x16B8ADB7, ".....................VVV"),
    (0x00000000, "VVVVVVVVVVVVVVVVVVVVVVVV"),
    (0x9FA89AAE, "........................"),
    (0x4E825B64, "........................"),
    (0x00000000, "SSSSSSSSSSSSSSSSSSSSSSSS"),
    (0x6C7F9FC0, ".....................VVV"),
    (0x7CF04AC9, "........................"),
    (0x06571E05, "........................"),
    (0xF50FAF4E, "........................"),
    (0x04DAA5C8, "VVVVVV.................."),
    (0xB51D0F9B, "........................"),
    (0xEEC713BB, "........................"),
    (0xFFED60B7, "........................"),
    (0xFA64BD55, "........................"),
    (0x1D910134, "........................"),
    (0x1D910134, "........................"),
    (0x55DEB988, "........................"),
    (0x84A905BA, "........................"),
    (0x258A995B, "........................"),
    (0x1CA77403, "........................"),
    (0x1D910134, "........................"),
    (0x4E0BAB64, "........................"),
    (0xEFB5DFB7, "........................"),
    (0x4B3BD9EF, "........................"),
    (0x2C6E81BE, "........................"),
    (0xD17B7D29, "........................"),
    (0x4CA7D2C4, "........................"),
    (0x08C0D9F8, "VVVVVV.................."),
    (0x725CE164, "........................"),
    (0x1C4C504C, ".........SSS...SSS......"),
    (0x9775918B, "........................"),
    (0x02DFE689, "........................"),
    (0xA20FA925, "......VVVVVV...VVVVVVVVV"),
    (0x416C372F, "........................"),
    (0xE1F26121, "...SSS...SSS...SSS...SSS"),
    (0xC784555D, "...SSS...SSS...SSS...SSS"),
    (0x00000000, "VVVVVVVVVVVVVVVVVVVVVVVV"),
    (0x1D910134, "........................"),
    (0xA2B67E8B, "........................"),
    (0xFFDC5D09, "......SSS...SSSSSSSSSSSS"),
    (0x369D72B6, "........................"),
    (0x4A7672D2, "........................"),
    (0xBA7EBF42, "........................"),
    (0x634BFA8A, "........................"),
    (0x86BFA808, "........................"),
    (0x809BCD65, "........................"),
    (0x36C3C4E9, "........................"),
    (0xFF6AB08E, "........................"),
    (0x12C57C1D, "........................"),
    (0x809BCD65, "........................"),
    (0x9BB0711D, "........................"),
    (0x9E83FFF0, "........................"),
    (0x3C93B7C7, "........................"),
    (0xDAC9641E, "........................"),
    (0xC13A76C5, "........................"),
    (0x4F6ADB04, "........................"),
    (0x00000000, "VVVVVVVVVVVVVVVVVVVVVVVV"),
    (0xA38EFBE7, "........................"),
    (0x79BDDAD2, "........................"),
    (0x2A63D2CF, "........................"),
    (0xBC6A72E0, "........................"),
    (0xC9A8DF92, "........................"),
    (0x00000000, "SSSSSSSSSSSSSSSSSSSSSSSS"),
    (0x0A49DBBC, "........................"),
    (0xE7524F58, "........................"),
    (0x24D920EB, "........................"),
    (0xE94E4951, "......VVVVVV......VVVVVV"),
    (0x65F76C43, "........................"),
    (0xAF4816F0, "........................"),
    (0x0B870A25, "........................"),
    (0x1D910134, "........................"),
    (0x3261DAF8, "........................"),
    (0x4F6ADB04, "........................"),
    (0x1F830797, ".....................KKK"),
    (0x96116D48, "........................"),
    (0x84CAD283, "........................"),
    (0x832646C8, "........................"),
    (0x02DFE689, "........................"),
    (0x4CA7D2C4, "........................"),
    (0x81CA2B68, "........................"),
    (0xAD69E023, "........................"),
    (0x04EBB274, "........................"),
    (0x4CA7D2C4, "........................"),
    (0x1AFB9B25, "........................"),
    (0x9CE4FA55, "..................VVV..."),
    (0xB4EAFD2A, "........................"),
    (0x4DDED669, "........................"),
    (0x868D1B40, "........................"),
    (0x740B9A1D, "........................"),
    (0xD53B3B11, "........................"),
    (0xF2A55384, "........................"),
    (0xE4E1AE82, "........................"),
    (0xF9780EBD, "........................"),
    (0x1D910134, "........................"),
    (0xE561CF1A, "........................"),
    (0x1D910134, "........................"),
    (0x926B15E6, "........................"),
    (0xDCA655D3, "........................"),
    (0xAF0B4510, "........................"),
    (0x1D910134, "........................"),
    (0x2257CB17, "........................"),
)


def test_differential_table_holds():
    specs = _differential_specs()
    assert len(specs) == len(DIFFERENTIAL) == len(preset_names()) + DIFF_TREES
    drift = []
    for number, (spec, (crc, outcomes)) in enumerate(zip(specs, DIFFERENTIAL)):
        fold = 0
        for index, case in enumerate(_differential_cases()):
            outcome = outcomes[index]
            if outcome in "VK":
                with pytest.raises(ValueError):
                    _differential_run(spec, case)
                continue
            traces = _differential_run(spec, case)
            if outcome == "S":
                assert len(traces[0].steps) <= DIFF_MOVES, (number, index)
                continue
            fold = _fold(fold, index, traces)
        if fold != crc:
            drift.append(number)
    assert drift == []
