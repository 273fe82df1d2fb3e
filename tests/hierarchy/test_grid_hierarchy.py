"""Unit tests for the base-r grid hierarchy (§II-B example)."""

import pytest

from repro.geometry import GridTiling
from repro.hierarchy import (
    ClusterId,
    GridHierarchy,
    grid_hierarchy,
)


@pytest.fixture(scope="module")
def h2():
    """r=2, MAX=2 world (4x4 regions)."""
    return grid_hierarchy(2, 2)


@pytest.fixture(scope="module")
def h3():
    """r=3, MAX=2 world (9x9 regions)."""
    return grid_hierarchy(3, 2)


def test_max_level_matches_paper_formula(h2, h3):
    import math

    for h, r in [(h2, 2), (h3, 3)]:
        D = h.tiling.diameter()
        assert h.max_level == math.ceil(math.log(D + 1, r))


def test_level0_clusters_are_singletons(h2):
    c = h2.cluster((1, 2), 0)
    assert c == ClusterId(0, (1, 2))
    assert h2.members(c) == [(1, 2)]
    assert h2.head(c) == (1, 2)


def test_level1_cluster_blocks(h2):
    c = h2.cluster((2, 3), 1)
    assert c == ClusterId(1, (1, 1))
    assert sorted(h2.members(c)) == [(2, 2), (2, 3), (3, 2), (3, 3)]


def test_single_top_cluster(h2):
    root = h2.root()
    assert root.level == 2
    assert len(h2.members(root)) == 16


def test_parent_child_consistency(h2):
    for level in range(h2.max_level):
        for c in h2.clusters_at_level(level):
            parent = h2.parent(c)
            assert parent is not None
            assert c in h2.children(parent)
            member = h2.members(c)[0]
            assert h2.cluster(member, level + 1) == parent


def test_root_has_no_parent(h2):
    assert h2.parent(h2.root()) is None


def test_level0_has_no_children(h2):
    assert h2.children(h2.cluster((0, 0), 0)) == []


def test_children_partition_parent(h3):
    for c in h3.clusters_at_level(1):
        kids = h3.children(c)
        assert len(kids) == 9
        members = sorted(m for k in kids for m in h3.members(k))
        assert members == sorted(h3.members(c))


def test_nbrs_are_symmetric_same_level(h2):
    for c in h2.all_clusters():
        for other in h2.nbrs(c):
            assert other.level == c.level
            assert c in h2.nbrs(other)
            assert other != c


def test_corner_level1_cluster_has_three_neighbors(h2):
    c = h2.cluster((0, 0), 1)
    assert len(h2.nbrs(c)) == 3


def test_interior_level1_cluster_has_eight_neighbors(h3):
    # 9x9 world at r=3 has a 3x3 arrangement of level-1 blocks.
    c = h3.cluster((4, 4), 1)
    assert len(h3.nbrs(c)) == 8


def test_omega_bound_holds(h3):
    for c in h3.all_clusters():
        assert len(h3.nbrs(c)) <= h3.params.omega(c.level)


def test_chain_is_nested(h2):
    chain = h2.chain((3, 1))
    assert [c.level for c in chain] == [0, 1, 2]
    for lower, upper in zip(chain, chain[1:]):
        assert set(h2.members(lower)) <= set(h2.members(upper))


def test_head_is_member(h3):
    for c in h3.all_clusters():
        assert h3.head(c) in h3.members(c)


def test_head_is_deterministic():
    a = grid_hierarchy(2, 2)
    b = grid_hierarchy(2, 2)
    for c in a.all_clusters():
        assert a.head(c) == b.head(c)


def test_non_square_tiling_rejected():
    with pytest.raises(ValueError):
        GridHierarchy(GridTiling(4, 2), 2)


def test_non_power_side_rejected():
    with pytest.raises(ValueError):
        GridHierarchy(GridTiling(6), 2)


def test_base_below_two_rejected():
    with pytest.raises(ValueError):
        grid_hierarchy(1, 2)


def test_level_out_of_range_rejected(h2):
    with pytest.raises(ValueError):
        h2.cluster((0, 0), 5)
    with pytest.raises(ValueError):
        h2.clusters_at_level(-1)


# ----------------------------------------------------------------------
# Closed-form construction ≡ the generic constructor
# ----------------------------------------------------------------------
def explicit_tiling(tiling):
    """The same board as a generic region graph: each square's centre and
    its 8-neighbourhood written out region by region, over the grid
    tiling's own id objects."""
    from repro.geometry import GraphTiling, Point

    regions = tiling.regions()
    world = set(regions)
    adjacency = {
        u: [
            (u[0] + dc, u[1] + dr)
            for dc in (-1, 0, 1)
            for dr in (-1, 0, 1)
            if (dc, dr) != (0, 0) and (u[0] + dc, u[1] + dr) in world
        ]
        for u in regions
    }
    centers = {u: Point(u[0] + 0.5, u[1] + 0.5) for u in regions}
    return GraphTiling(adjacency, centers)


def generic_twin(h, tiling=None):
    """The generic hierarchy over the level maps a grid hierarchy states."""
    from repro.hierarchy.hierarchy import ExplicitHierarchy

    regions = h.tiling.regions()
    level_maps = [
        {u: u if level == 0 else (u[0] // h.r**level, u[1] // h.r**level) for u in regions}
        for level in h.levels()
    ]
    return ExplicitHierarchy(tiling or h.tiling, level_maps, h.params)


@pytest.mark.parametrize(
    "r, max_level",
    [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3), (3, 4), (4, 2)],
)
def test_closed_form_construction_equals_generic(r, max_level):
    h = grid_hierarchy(r, max_level)
    twin = explicit_tiling(h.tiling)
    generic = generic_twin(h, twin)
    assert h.max_level == generic.max_level == max_level
    regions = h.tiling.regions()
    assert twin.regions() == regions
    assert all(a is b for a, b in zip(twin.regions(), regions))
    probes = regions[:: max(1, len(regions) // 40)]
    for i, u in enumerate(regions):
        assert h.tiling.index(u) == twin.index(u) == i  # the dense index
        assert h.tiling.region(u) == twin.region(u)
        assert h.tiling.neighbors(u) == twin.neighbors(u)
    for u in probes:
        for v in probes:
            assert h.tiling.distance(u, v) == twin.distance(u, v)
    for off in [(-1, 0), (h.tiling.width, 0), (0, h.tiling.height), "nowhere"]:
        for tiling in (h.tiling, twin):
            with pytest.raises(KeyError):
                tiling.index(off)
    for level in h.levels():
        clusters = h.clusters_at_level(level)
        assert clusters == generic.clusters_at_level(level)
        interned = {c: c for c in clusters}
        for u in regions:
            cid = h.cluster(u, level)
            assert cid == generic.cluster(u, level)
            assert cid is interned[cid]  # one object per (level, key)
        for c in clusters:
            assert h.members(c) == generic.members(c)
            # ... the tiling's own id objects, as the generic maps hold:
            assert all(a is b for a, b in zip(h.members(c), generic.members(c)))
            assert all(u is regions[h.tiling.index(u)] for u in h.members(c))
            assert h.head(c) == generic.head(c)
            assert h.parent(c) == generic.parent(c)
            if level < max_level:
                assert h.parent(c) is h.cluster(h.members(c)[0], level + 1)
            assert h.children(c) == generic.children(c)
            assert h.nbrs(c) == generic.nbrs(c)  # lists: the order is compared too
            assert all(n is interned[n] for n in h.nbrs(c))


@pytest.mark.parametrize("r, max_level", [(2, 3), (3, 2)])
def test_no_cluster_outside_the_world(r, max_level):
    """Regions off the grid have no cluster, and a phantom id no parent:
    ``KeyError``, as the generic hierarchy says."""
    h = grid_hierarchy(r, max_level)
    generic = generic_twin(h)
    side = h.tiling.width
    for u in [(99, 99), (-1, 0), (0, -1), (side, 0), (0, side), (side, side)]:
        for level in h.levels():
            for hierarchy in (h, generic):
                with pytest.raises(KeyError):
                    hierarchy.cluster(u, level)
    phantoms = [ClusterId(1, (49, 49)), ClusterId(0, (-1, 0)), ClusterId(0, (side, 1))]
    phantoms += [ClusterId(level, (side // r**level, 0)) for level in h.levels()]
    for c in phantoms:
        for hierarchy in (h, generic):
            if c.level < max_level:
                with pytest.raises(KeyError):
                    hierarchy.parent(c)
            with pytest.raises(KeyError):
                hierarchy.head(c)
