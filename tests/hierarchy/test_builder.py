"""Tests for agglomerative hierarchy construction and VINESTALK on hex worlds."""

import random

import pytest

from repro.core import (
    VineStalk,
    atomic_move_seq,
    capture_snapshot,
    uniform_schedule,
)
from repro.geometry import GridTiling, line_tiling
from repro.hierarchy import validate_structure
from repro.mobility import RandomNeighborWalk
from examples.irregular_world import HexTiling, build_agglomerative_hierarchy


class TestBuilder:
    def test_structural_requirements_hold_on_hex(self):
        h = build_agglomerative_hierarchy(HexTiling(3), ratio=3)
        validate_structure(h)

    def test_structural_requirements_hold_on_grid(self):
        h = build_agglomerative_hierarchy(GridTiling(5), ratio=4)
        validate_structure(h)

    def test_structural_requirements_hold_on_line(self):
        h = build_agglomerative_hierarchy(line_tiling(10), ratio=2)
        validate_structure(h)

    def test_cluster_counts_shrink_per_level(self):
        h = build_agglomerative_hierarchy(HexTiling(2), ratio=3)
        counts = [len(h.clusters_at_level(l)) for l in h.levels()]
        assert counts[0] == 19
        assert counts[-1] == 1
        assert all(a > b for a, b in zip(counts, counts[1:]))

    def test_measured_params_attached(self):
        h = build_agglomerative_hierarchy(HexTiling(2), ratio=3)
        assert h.params.max_level == h.max_level
        assert h.params.q(0) == 1
        assert h.params.omega(0) == 6  # hex center

    def test_deterministic(self):
        a = build_agglomerative_hierarchy(HexTiling(2), ratio=3)
        b = build_agglomerative_hierarchy(HexTiling(2), ratio=3)
        for u in a.tiling.regions():
            for level in a.levels():
                assert a.cluster(u, level) == b.cluster(u, level)

    def test_bad_ratio_rejected(self):
        with pytest.raises(ValueError):
            build_agglomerative_hierarchy(HexTiling(2), ratio=1)

    def test_single_region_rejected(self):
        with pytest.raises(ValueError):
            build_agglomerative_hierarchy(line_tiling(1), ratio=2)


class TestVineStalkOnHex:
    @pytest.fixture(scope="class")
    def system(self):
        tiling = HexTiling(3)
        h = build_agglomerative_hierarchy(tiling, ratio=3)
        schedule = uniform_schedule(h.params, 1.0, 0.5)
        system = VineStalk(h, schedule=schedule)
        rng = random.Random(2)
        evader = system.make_evader(
            RandomNeighborWalk(start=(0, 0)), dwell=1e12, start=(0, 0), rng=rng
        )
        system.run_to_quiescence()
        return h, system, evader

    def test_moves_match_atomic_model(self, system):
        h, vs, evader = system
        seq = [evader.region]
        for _ in range(15):
            evader.step()
            seq.append(evader.region)
            vs.run_to_quiescence()
            snap = capture_snapshot(vs)
            assert snap.pointer_map() == atomic_move_seq(h, seq).pointer_map()

    def test_finds_complete_from_rim(self, system):
        h, vs, evader = system
        for origin in [(3, 0), (-3, 0), (0, 3), (0, -3), (3, -3), (-3, 3)]:
            find_id = vs.issue_find(origin)
            vs.run_to_quiescence()
            record = vs.finds.records[find_id]
            assert record.completed, f"find from {origin} failed"
            assert record.found_region == evader.region
