"""Tests for the strip hierarchy and VINESTALK running on it.

The paper's generalized cluster definitions are not grid-specific; the
strip (1-D corridor) hierarchy exercises that: §II-B validation passes,
the tight parameters confirm the closed forms, and the full tracking
algorithm (moves, atomicMoveSeq equality, finds) works unchanged.
"""

import random

import pytest

from repro.core import (
    VineStalk,
    atomic_move_seq,
    capture_snapshot,
    check_consistent,
)
from repro.hierarchy import (
    StripHierarchy,
    strip_hierarchy,
    strip_params,
    tight_params,
    validate_hierarchy,
)
from repro.geometry import line_tiling
from repro.mobility import FixedPath, RandomNeighborWalk


class TestStripStructure:
    @pytest.mark.parametrize("r,max_level", [(2, 2), (2, 3), (3, 2), (4, 2)])
    def test_strip_fully_validates(self, r, max_level):
        validate_hierarchy(strip_hierarchy(r, max_level))

    def test_closed_forms_dominate_tight(self):
        h = strip_hierarchy(3, 2)
        tight = tight_params(h)
        for level in range(h.max_level):
            assert tight.n(level) <= h.params.n(level)
            assert tight.p(level) <= h.params.p(level)
            assert tight.omega(level) <= h.params.omega(level)
            assert h.params.q(level) <= tight.q(level)

    def test_omega_is_two(self):
        h = strip_hierarchy(3, 2)
        for clust in h.all_clusters():
            assert len(h.nbrs(clust)) <= 2

    def test_segments(self):
        h = strip_hierarchy(3, 2)
        c = h.cluster(4, 1)
        assert sorted(h.members(c)) == [3, 4, 5]
        assert h.parent(c) == h.root()

    def test_non_power_length_rejected(self):
        with pytest.raises(ValueError):
            StripHierarchy(line_tiling(6), 4)

    def test_bad_base_rejected(self):
        with pytest.raises(ValueError):
            strip_hierarchy(1, 2)
        with pytest.raises(ValueError):
            strip_params(1, 2)


class TestVineStalkOnStrip:
    def test_default_schedule_applies(self):
        h = strip_hierarchy(3, 2)
        system = VineStalk(h)  # r attribute present: schedule defaulted
        assert system.schedule.max_level == 2

    def test_moves_match_atomic_model(self):
        h = strip_hierarchy(3, 2)  # 9-region corridor
        system = VineStalk(h)
        rng = random.Random(6)
        evader = system.make_evader(
            RandomNeighborWalk(start=4), dwell=1e12, start=4, rng=rng
        )
        system.run_to_quiescence()
        seq = [4]
        for _ in range(20):
            evader.step()
            seq.append(evader.region)
            system.run_to_quiescence()
            snap = capture_snapshot(system)
            assert check_consistent(snap, h, evader.region) == []
            assert snap.pointer_map() == atomic_move_seq(h, seq).pointer_map()

    def test_finds_work_along_the_corridor(self):
        h = strip_hierarchy(3, 3)  # 27-region corridor
        system = VineStalk(h)
        system.make_evader(FixedPath([20]), dwell=1e12, start=20)
        system.run_to_quiescence()
        for origin in (0, 5, 13, 26):
            find_id = system.issue_find(origin)
            system.run_to_quiescence()
            record = system.finds.records[find_id]
            assert record.completed
            assert record.found_region == 20

    def test_find_work_scales_with_distance(self):
        h = strip_hierarchy(2, 4)  # corridor of 16 regions
        system = VineStalk(h)
        system.make_evader(FixedPath([0]), dwell=1e12, start=0)
        system.run_to_quiescence()
        works = []
        for origin in (1, 4, 12):
            find_id = system.issue_find(origin)
            system.run_to_quiescence()
            works.append(system.finds.records[find_id].work)
        assert works[0] < works[-1]  # near finds cheaper than far finds

    def test_end_to_end_sweep(self):
        h = strip_hierarchy(2, 3)
        system = VineStalk(h)
        evader = system.make_evader(
            FixedPath(list(range(8))), dwell=1e12, start=0
        )
        system.run_to_quiescence()
        for _ in range(7):
            evader.step()
            system.run_to_quiescence()
        snap = capture_snapshot(system)
        assert check_consistent(snap, h, 7) == []
