"""Unit tests for the deterministic strip partitioner and ShardPlan."""

import pickle

import pytest

from repro.hierarchy.grid import grid_hierarchy
from repro.sim.sharded import ShardPlan, strip_plan


@pytest.fixture(scope="module")
def tiling():
    return grid_hierarchy(2, 3).tiling


class TestStripPlan:
    def test_covers_every_region_exactly_once(self, tiling):
        plan = strip_plan(tiling, 4)
        regions = [region for region, _ in plan.assignment]
        assert sorted(regions) == sorted(tiling.regions())
        assert len(set(regions)) == len(regions)

    def test_counts_are_balanced(self, tiling):
        n = len(tiling.regions())
        for k in (1, 2, 3, 4, 7):
            counts = strip_plan(tiling, k).counts()
            assert sum(counts) == n
            assert max(counts) - min(counts) <= 1

    def test_strips_are_contiguous_slices(self, tiling):
        # Shard ids must be nondecreasing along the canonical region
        # order — the defining property of a strip partition.
        plan = strip_plan(tiling, 4)
        order = [plan.shard_of(region) for region in tiling.regions()]
        assert order == sorted(order)

    def test_k_above_region_count_rejected(self):
        # Was clamped: a run asked for 16 shards quietly ran 4.
        tiny = grid_hierarchy(2, 1).tiling  # 2x2 = 4 regions
        plan = strip_plan(tiny, 4)
        assert all(count == 1 for count in plan.counts())
        with pytest.raises(ValueError, match="5 shards exceed this world's 4 regions"):
            strip_plan(tiny, 5)

    def test_k_below_one_rejected(self, tiling):
        with pytest.raises(ValueError):
            strip_plan(tiling, 0)

    def test_shard_of_matches_regions_of(self, tiling):
        plan = strip_plan(tiling, 3)
        for shard in range(plan.k):
            for region in plan.regions_of(shard):
                assert plan.shard_of(region) == shard

    def test_deterministic(self, tiling):
        assert strip_plan(tiling, 4) == strip_plan(tiling, 4)

    def test_pickle_roundtrip_rebuilds_lookup(self, tiling):
        plan = strip_plan(tiling, 4)
        clone = pickle.loads(pickle.dumps(plan))
        assert clone == plan
        for region in tiling.regions():
            assert clone.shard_of(region) == plan.shard_of(region)

    def test_single_shard_owns_everything(self, tiling):
        plan = strip_plan(tiling, 1)
        assert isinstance(plan, ShardPlan)
        assert plan.owned_set(0) == set(tiling.regions())
