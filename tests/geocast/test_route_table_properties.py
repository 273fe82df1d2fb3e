"""Property tests: precomputed route tables ≡ fresh per-call BFS.

The tentpole invariant of the topology cache is that it changes *when*
routes are computed, never *what* they are.  These tests pin that down:

* a :class:`repro.topo.RouteTable` must agree with the reference
  per-call BFS below (paths, distances, next hops) after **any**
  interleaving of ``set_region_down(region, True/False)`` toggles;
* a :class:`~repro.geocast.GeocastRouter` must route exactly as that
  reference does — including its rule that a down endpoint or a
  disconnecting down-set falls back to the down-agnostic path;
* shrinking the down-set back to a previously seen one must reuse the
  earlier table layer without rebuilding any tree.
"""

from collections import deque

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.geocast import GeocastRouter  # noqa: E402
from repro.geometry import GridTiling, line_tiling  # noqa: E402
from repro.sim import Simulator  # noqa: E402
from repro.topo import RouteTable  # noqa: E402


# ----------------------------------------------------------------------
# Reference implementation: the early-terminating per-call BFS that the
# route tables replace.  An oracle, so it lives in the test tree only.
# ----------------------------------------------------------------------
def reference_path(tiling, src, dest, avoid=frozenset()):
    """The early-terminating per-call BFS."""
    if src in avoid or dest in avoid:
        raise ValueError("endpoint down")
    if src == dest:
        return [src]
    parent = {src: src}
    frontier = deque([src])
    while frontier:
        cur = frontier.popleft()
        for nxt in tiling.neighbors(cur):
            if nxt not in parent and nxt not in avoid:
                parent[nxt] = cur
                if nxt == dest:
                    path = [dest]
                    while path[-1] != src:
                        path.append(parent[path[-1]])
                    return list(reversed(path))
                frontier.append(nxt)
    raise ValueError("no route")


def reference_live_path(tiling, src, dest, down):
    try:
        return reference_path(tiling, src, dest, avoid=down)
    except ValueError:
        return None


def reference_route(tiling, src, dest, down):
    """The router's contract: live path, else down-agnostic path."""
    path = reference_live_path(tiling, src, dest, down)
    if path is None:
        path = reference_path(tiling, src, dest)
    return path


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
@st.composite
def scenarios(draw):
    """A tiling, a down-toggle interleaving, and query endpoint pairs."""
    if draw(st.booleans()):
        tiling = GridTiling(draw(st.integers(min_value=2, max_value=5)))
    else:
        tiling = line_tiling(draw(st.integers(min_value=3, max_value=8)))
    region = st.sampled_from(tiling.regions())
    toggles = draw(
        st.lists(st.tuples(region, st.booleans()), max_size=12)
    )
    queries = draw(
        st.lists(st.tuples(region, region), min_size=1, max_size=8)
    )
    return tiling, toggles, queries


# ----------------------------------------------------------------------
# Properties
# ----------------------------------------------------------------------
@given(scenarios())
@settings(max_examples=60, deadline=None)
def test_route_table_matches_fresh_bfs_through_toggles(case):
    tiling, toggles, queries = case
    table = RouteTable(tiling)
    down = set()
    # Check before any toggle too (the empty down-set layer).
    steps = [None] + toggles
    for step in steps:
        if step is not None:
            region, flag = step
            (down.add if flag else down.discard)(region)
        key = frozenset(down)
        for src, dest in queries:
            want_live = reference_live_path(tiling, src, dest, key)
            assert table.live_path(src, dest, key) == want_live
            want_dist = None if want_live is None else len(want_live) - 1
            assert table.distance(src, dest, key) == want_dist
            assert table.path(src, dest, key) == reference_route(
                tiling, src, dest, key
            )


@given(scenarios())
@settings(max_examples=40, deadline=None)
def test_router_routes_equal_reference_bfs(case):
    tiling, toggles, queries = case
    router = GeocastRouter(Simulator(), tiling, delta=1.0)
    down = set()
    for step in [None] + toggles:
        if step is not None:
            region, flag = step
            router.set_region_down(region, flag)
            (down.add if flag else down.discard)(region)
        for src, dest in queries:
            assert router.route(src, dest) == reference_route(
                tiling, src, dest, frozenset(down)
            )


# ----------------------------------------------------------------------
# Incremental invalidation (deterministic)
# ----------------------------------------------------------------------
def test_shrink_back_reuses_previous_layer():
    table = RouteTable(GridTiling(4))
    empty = frozenset()
    blackout = frozenset({(1, 1)})
    table.path((0, 0), (3, 3), empty)
    builds = table.tree_builds
    table.path((0, 0), (3, 3), blackout)
    assert table.tree_builds == builds + 1
    # Blackout lifts: the empty layer is still there — a pure hit.
    hits = table.tree_hits
    table.path((0, 0), (3, 3), empty)
    assert table.tree_builds == builds + 1
    assert table.tree_hits == hits + 1


def test_down_epoch_bumps_only_on_actual_change():
    router = GeocastRouter(Simulator(), GridTiling(3), delta=1.0)
    assert router.down_epoch == 0
    router.set_region_down((1, 1))
    assert router.down_epoch == 1
    router.set_region_down((1, 1))  # already down: no-op
    assert router.down_epoch == 1
    router.set_region_down((2, 2), False)  # already up: no-op
    assert router.down_epoch == 1
    router.set_region_down((1, 1), False)
    assert router.down_epoch == 2

