"""Unit tests for the generator framework's building blocks.

The property suite (``test_gen_properties.py``) pins the global §VI
contract over random combinator trees; these tests pin the individual
pieces — spec validation, masked tilings, walk mechanics, the preset
registry and trace/workload edge cases.
"""

import pytest

from repro.mobility.gen import (
    COMBINATORS,
    PRIMITIVES,
    Compose,
    Convoy,
    Dither,
    GeneratorSpec,
    Hotspots,
    MobilityTrace,
    Obstacles,
    Replay,
    SpeedLimits,
    Switch,
    TimeSlice,
    Walk,
    WaypointGraph,
    check_trace,
    generate,
    masked_tiling,
    preset,
    touched_level,
    trace_workload,
)
from repro.mobility.gen.workload import resolve_spec
from repro.sim.rng import RngRegistry
from repro.topo.cache import shared_grid_hierarchy


@pytest.fixture(scope="module")
def world():
    return shared_grid_hierarchy(2, 2)


def _rng(seed=0):
    return RngRegistry(seed).stream("mobility.gen:0")


def _path(walk, n):
    """Drive ``walk`` ``n`` steps: the regions and the dwell factors."""
    path, factors = [next(walk)], []
    for _ in range(n):
        region, factor = walk.send(path[-1])
        path.append(region)
        factors.append(factor)
    return path, factors


# ----------------------------------------------------------------------
# masked_tiling
# ----------------------------------------------------------------------
def test_masked_tiling_rejects_unknown_regions(world):
    with pytest.raises(ValueError, match="not in the tiling"):
        masked_tiling(world.tiling, [(99, 99)])


def test_masked_tiling_rejects_near_total_masks(world):
    regions = list(world.tiling.regions())
    with pytest.raises(ValueError, match="fewer than two"):
        masked_tiling(world.tiling, regions[:-1])


def test_masked_tiling_rejects_disconnection():
    hierarchy = shared_grid_hierarchy(3, 1)
    # Blocking the full middle column splits a 3x3 grid in two.
    column = [(1, y) for y in range(3)]
    with pytest.raises(ValueError, match="disconnects"):
        masked_tiling(hierarchy.tiling, column)


def test_masked_tiling_preserves_neighbor_subset(world):
    masked = masked_tiling(world.tiling, [(0, 0)])
    assert (0, 0) not in masked.regions()
    for r in masked.regions():
        assert set(masked.neighbors(r)) <= set(world.tiling.neighbors(r))


# ----------------------------------------------------------------------
# Spec validation
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "build",
    [
        lambda: WaypointGraph(k=1),
        lambda: WaypointGraph(edges=((0, 1),), speeds=(1.0, 2.0)),
        lambda: WaypointGraph(edges=((0, 1),), speeds=(-1.0,)),
        lambda: Obstacles(inner=Walk(), density=1.5),
        lambda: Obstacles(inner=Walk()),  # no regions, no density
        lambda: Convoy(followers=0),
        lambda: Convoy(offset=0),
        lambda: Hotspots(k=0),
        lambda: Hotspots(period=0),
        lambda: Replay(steps=()),
        lambda: Compose(parts=(Walk(),)),
        lambda: Compose(parts=(Walk(), Dither()), weights=(1.0,)),
        lambda: Compose(parts=(Walk(), Dither()), weights=(1.0, -2.0)),
        lambda: Switch(parts=(Walk(),)),
        lambda: Switch(parts=(Walk(), Dither()), every=0),
        lambda: TimeSlice(parts=(Walk(), Dither()), boundaries=()),
        lambda: TimeSlice(parts=(Walk(), Dither()), boundaries=(3, 3)),
        # A repeated waypoint used to make generate() cycle forever.
        lambda: WaypointGraph(nodes=((0, 0), (0, 0))),
        lambda: WaypointGraph(
            nodes=((0, 0), (1, 1), (0, 0)), edges=((0, 2), (2, 0), (1, 0))
        ),
        # Non-finite weights and speeds used to run (or fail elsewhere).
        lambda: Compose(parts=(Walk(), Dither()), weights=(float("nan"), 1.0)),
        lambda: Compose(parts=(Walk(), Dither()), weights=(float("inf"), 1.0)),
        lambda: WaypointGraph(k=2, edges=((0, 1), (1, 0)), speeds=(1.0, float("nan"))),
        lambda: WaypointGraph(k=2, edges=((0, 1), (1, 0)), speeds=(1.0, float("inf"))),
    ],
)
def test_malformed_specs_fail_at_construction(build):
    with pytest.raises(ValueError):
        build()


def test_a_replay_crossing_the_mask_is_refused_when_its_walk_is_built(world):
    steps = ((0.0, (0, 0)), (1.0, (0, 1)), (2.0, (1, 1)))
    spec = Obstacles(inner=Replay(steps=steps), regions=((0, 0),))
    with pytest.raises(ValueError, match=r"replay step 0 enters \(0, 0\), outside"):
        spec.walk(world, _rng())
    inside_out = Obstacles(inner=Replay(steps=steps), regions=((1, 1),))
    with pytest.raises(ValueError, match=r"replay step 2 enters \(1, 1\), outside"):
        generate(Compose(parts=(Walk(), inside_out)), world, 4, seed=0)


def test_waypoint_resolve_validates_against_the_tiling(world):
    with pytest.raises(ValueError, match="not in the tiling"):
        WaypointGraph(nodes=((0, 0), (42, 42))).walk(world, _rng())
    with pytest.raises(ValueError, match="cannot sample"):
        WaypointGraph(k=999).walk(world, _rng())
    with pytest.raises(ValueError, match="bad waypoint edge"):
        WaypointGraph(nodes=((0, 0), (0, 1)), edges=((0, 5),)).walk(world, _rng())


def test_waypoint_rejects_unreachable_nodes(world):
    nodes = ((0, 0), (0, 1), (0, 2))
    with pytest.raises(ValueError, match="unreachable"):
        WaypointGraph(nodes=nodes, edges=((0, 1), (1, 0))).walk(world, _rng())


def test_replay_trace_ends_early_when_exhausted(world):
    path_steps = ((0.0, (0, 0)), (50.0, (0, 1)), (100.0, (0, 2)))
    (trace,) = generate(Replay(steps=path_steps), world, n_moves=10, seed=0)
    # Two recorded moves, then the replay runs out and the trace ends.
    assert trace.regions == ((0, 0), (0, 1), (0, 2))
    # Under a combinator too: the walk ends when the replay's turn
    # comes at its final region.
    switch = Switch(parts=(Replay(steps=path_steps), Walk()), every=4)
    (trace,) = generate(switch, world, n_moves=10, seed=0)
    assert trace.regions == ((0, 0), (0, 1), (0, 2))


def test_primitive_and_combinator_inventories():
    assert len(PRIMITIVES) >= 6
    assert len(COMBINATORS) == 3
    for cls in PRIMITIVES + COMBINATORS:
        assert issubclass(cls, GeneratorSpec)


# ----------------------------------------------------------------------
# Walk mechanics
# ----------------------------------------------------------------------
def test_waypoint_slow_legs_scale_the_dwell(world):
    spec = preset("waypoint-slow-legs")
    _, factors = _path(spec.walk(world, _rng(3)), 40)
    assert set(factors) == {1.0, 2.0, 4.0}
    traces = generate(spec, world, 10, seed=3, base_dwell=50.0)
    # The 2x / 4x legs must be visible in the dwell distribution.
    assert max(traces[0].dwells()) > min(traces[0].dwells())


def test_waypoint_dead_ends_bounce_back(world):
    nodes = ((0, 0), (0, 1))
    walk = WaypointGraph(nodes=nodes, edges=((0, 1),)).walk(world, _rng())
    # Waypoint 1 has no outgoing edge: it bounces back along 1 -> 0.
    path, _ = _path(walk, 6)
    assert set(zip(path, path[1:])) == {((0, 0), (0, 1)), ((0, 1), (0, 0))}


def test_dither_is_a_pure_function_of_the_start(world):
    paths = []
    for seed in (1, 999):
        walk = Dither().walk(world, _rng(seed))
        next(walk)  # the start draw; every path below starts at (0, 0)
        path = [(0, 0)]
        for _ in range(6):
            path.append(walk.send(path[-1])[0])
        paths.append(path)
    assert paths[0] == paths[1]


def test_replay_walk_validates_and_ends(world):
    with pytest.raises(ValueError, match="not a neighbor move"):
        Replay(steps=((0.0, (0, 0)), (1.0, (3, 3)))).walk(world, _rng())
    walk = Replay(steps=((0.0, (0, 0)), (1.0, (0, 1)))).walk(world, _rng())
    assert next(walk) == (0, 0)
    assert walk.send((0, 0)) == ((0, 1), 1.0)
    # Run out at the final region: the walk ends rather than stays.
    with pytest.raises(StopIteration):
        walk.send((0, 1))


def test_replay_model_walks_back_when_knocked_off_path(world):
    walk = Replay(steps=((0.0, (0, 0)), (1.0, (0, 1)), (2.0, (0, 2)))).walk(
        world, _rng()
    )
    next(walk)
    walk.send((0, 0))
    # A combinator sibling carried the evader far off path.
    step, _ = walk.send((3, 3))
    assert step in world.tiling.neighbors((3, 3))
    assert world.tiling.distance(step, (0, 1)) < world.tiling.distance((3, 3), (0, 1))


def test_masked_model_catches_up_from_outside_the_mask(world):
    walk = Obstacles(inner=Walk(), regions=((0, 0),)).walk(world, _rng())
    next(walk)
    # Current region is the obstacle itself: the walk must step out.
    step, factor = walk.send((0, 0))
    assert step in world.tiling.neighbors((0, 0))
    assert factor == 1.0


def test_masked_step_back_reuses_the_inner_walks_last_factor(world):
    inner = WaypointGraph(
        nodes=((2, 2), (2, 3)), edges=((0, 1), (1, 0)), speeds=(3.0, 3.0)
    )
    walk = Obstacles(inner=inner, regions=((0, 0),)).walk(world, _rng())
    start = next(walk)
    assert walk.send(start)[1] == 3.0
    assert walk.send((0, 0)) == ((0, 1), 3.0)


def test_generated_models_are_move_strict_by_default(world):
    for spec in (Walk(), Dither(), Hotspots(k=1, period=2), WaypointGraph(k=3)):
        path, _ = _path(spec.walk(world, _rng()), 30)
        for u, v in zip(path, path[1:]):
            assert world.tiling.are_neighbors(u, v), (spec, u, v)


def test_generate_rejects_a_move_strict_stay(world):
    class StuckSpec(GeneratorSpec):
        def walk(self, hierarchy, rng, space=None):
            def steps():
                current = yield (0, 0)
                while True:
                    current = yield current, 1.0

            return steps()

    with pytest.raises(ValueError, match=r"step 1: the walk stayed at \(0, 0\)"):
        generate(StuckSpec(), world, 3, seed=0)


# ----------------------------------------------------------------------
# Speed limits
# ----------------------------------------------------------------------
def test_touched_level_bounds(world):
    assert touched_level(world, (0, 0), (0, 0)) == 0
    # Crossing the top-level cluster boundary touches max_level.
    assert touched_level(world, (1, 1), (2, 1)) == world.max_level


def test_speed_limits_validation(world):
    with pytest.raises(ValueError, match="mode"):
        SpeedLimits(per_level=(1.0,), mode="sideways")
    with pytest.raises(ValueError, match="non-empty"):
        SpeedLimits(per_level=())
    limits = SpeedLimits.for_hierarchy(world)
    assert limits.enter_floor == limits.per_level[-1]
    assert limits.per_level == tuple(sorted(limits.per_level))


def test_check_trace_reports_the_violating_step(world):
    limits = SpeedLimits.for_hierarchy(world)
    trace = MobilityTrace(steps=((0.0, (0, 0)), (0.5, (0, 1))))
    message = check_trace(trace, world, limits)
    assert message is not None and "§VI floor" in message


def test_for_hierarchy_requires_a_grid_base():
    class NoGrid:
        params = None

    with pytest.raises(ValueError, match="no grid base"):
        SpeedLimits.for_hierarchy(NoGrid())


# ----------------------------------------------------------------------
# Traces and workload export
# ----------------------------------------------------------------------
def test_trace_validation():
    with pytest.raises(ValueError, match="at least the enter"):
        MobilityTrace(steps=())
    with pytest.raises(ValueError, match="strictly increasing"):
        MobilityTrace(steps=((1.0, (0, 0)), (1.0, (0, 1))))


def test_generate_needs_at_least_one_move(world):
    with pytest.raises(ValueError, match="at least one move"):
        generate(Walk(), world, 0, seed=0)


def test_multi_object_traces_use_distinct_streams(world):
    traces = generate(Walk(), world, 6, seed=4, n_objects=3)
    assert [t.object_id for t in traces] == [0, 1, 2]
    assert len({t.regions for t in traces}) > 1
    # The per-object stagger keeps enters off each other's instants.
    assert len({t.times[0] for t in traces}) == 3


def test_trace_workload_requires_traces_and_spreads_finds(world):
    with pytest.raises(ValueError, match="at least one trace"):
        trace_workload([])
    traces = generate(Walk(), world, 5, seed=2)
    workload = trace_workload(traces, n_finds=3, hierarchy=world, seed=2)
    times = [a.time for a in workload.actions]
    assert times == sorted(times) and len(set(times)) == len(times)
    finds = [a for a in workload.actions if type(a).__name__ == "IssueFind"]
    assert len(finds) == 3
    assert all(traces[0].times[0] < f.time < traces[0].times[-1] for f in finds)
    assert workload.horizon == traces[0].steps[-1][0]


def test_trace_workload_without_hierarchy_uses_visited_regions(world):
    traces = generate(Walk(), world, 4, seed=9)
    workload = trace_workload(traces, n_finds=2, seed=9)
    visited = set(traces[0].regions)
    finds = [a for a in workload.actions if type(a).__name__ == "IssueFind"]
    assert all(f.origin in visited for f in finds)


# ----------------------------------------------------------------------
# Preset registry
# ----------------------------------------------------------------------
def test_preset_lookup_errors_name_the_known_regimes():
    with pytest.raises(KeyError, match="uniform-walk"):
        preset("no-such-regime")


def test_resolve_spec_accepts_names_and_specs_only():
    assert resolve_spec("dither") == Dither()
    assert resolve_spec(Walk()) == Walk()
    with pytest.raises(TypeError, match="preset name or GeneratorSpec"):
        resolve_spec(42)
