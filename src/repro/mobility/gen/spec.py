"""Frozen generator combinators — the declarative mobility DSL.

A :class:`GeneratorSpec` tree is a small, picklable description of a
mobility regime, and the one class that describes it: ``walk()`` runs
it for one evader.  ``walk(hierarchy, rng, space=None)`` makes every
placement draw at once (waypoint sampling, obstacle selection, hotspot
pools, then each child's own draws in part order) from the rng stream
the caller passes, and returns a generator over ``space`` (default: the
hierarchy's tiling).  The generator yields the start region; sent the
current region, it yields ``(next region, dwell factor)`` — a neighbor
move and the multiplier the trace generator applies to the base dwell
before clamping to the §VI floor.  A walk never stays, and it ends only
when a :class:`Replay` runs out.  The same ``(spec, seed)`` pair always
yields the same walk.

Grammar (each node is a frozen dataclass; children nest freely)::

    spec := Walk()
          | WaypointGraph(nodes, k, edges, speeds)
          | Obstacles(inner, regions, density)
          | Convoy(leader, followers, offset)
          | Hotspots(k, period)
          | Dither()
          | Replay(steps)
          | Compose(parts, weights)
          | Switch(parts, every)
          | TimeSlice(parts, boundaries)

``GeneratedWalk(mobility=...)`` accepts a spec or a preset name
(:mod:`repro.mobility.gen.presets`).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate, count
from typing import Dict, Sequence, Tuple

from ...geometry.regions import RegionId
from ...geometry.tiling import GraphTiling, Tiling


def masked_tiling(tiling: Tiling, obstacles: Sequence[RegionId]) -> GraphTiling:
    """The sub-tiling of ``tiling`` with ``obstacles`` removed.

    Raises :class:`ValueError` when the remainder is empty, has no moves
    (a single region), or is disconnected — an obstacle field must leave
    a walkable space.
    """
    blocked = set(obstacles)
    unknown = blocked - set(tiling.regions())
    if unknown:
        raise ValueError(f"obstacle regions not in the tiling: {sorted(unknown)}")
    allowed = [r for r in tiling.regions() if r not in blocked]
    if len(allowed) < 2:
        raise ValueError("obstacle field leaves fewer than two regions")
    adjacency = {
        r: [n for n in tiling.neighbors(r) if n not in blocked] for r in allowed
    }
    centers = {r: tiling.region(r).center for r in allowed}
    remainder = GraphTiling(adjacency, centers)
    if -1 in remainder.distance_row(allowed[0]):
        raise ValueError("obstacle field disconnects the tiling")
    return remainder


def _toward(space: Tiling, current: RegionId, target: RegionId) -> RegionId:
    """The neighbor of ``current`` closest to ``target`` (min-id ties)."""
    return min(
        space.neighbors(current),
        key=lambda nb: (space.distance(nb, target), nb),
    )


def _space(hierarchy, space):
    return hierarchy.tiling if space is None else space


def _drive(walks, choose):
    """Prime every part's walk in order, then send each step to the
    part ``choose(step)`` names; end when that part ends."""
    starts = [next(w) for w in walks]
    current = yield starts[0]
    for step in count():
        try:
            move = walks[choose(step)].send(current)
        except StopIteration:
            return
        current = yield move


@dataclass(frozen=True)
class GeneratorSpec:
    """Base class for mobility-generator combinators."""

    def walk(self, hierarchy, rng, space=None):
        """Draw the placements now; return the step generator.

        ``space`` overrides ``hierarchy.tiling`` when an enclosing
        :class:`Obstacles` node has already masked the tiling.
        """
        raise NotImplementedError


@dataclass(frozen=True)
class Walk(GeneratorSpec):
    """Uniform random neighbor walk."""

    def walk(self, hierarchy, rng, space=None):
        space = _space(hierarchy, space)

        def steps():
            current = yield rng.choice(space.regions())
            while True:
                current = yield rng.choice(space.neighbors(current)), 1.0

        return steps()


@dataclass(frozen=True)
class WaypointGraph(GeneratorSpec):
    """Patrol a waypoint graph with per-edge speed profiles.

    The walk steps greedily through the space toward the current target
    waypoint; on arrival it draws the next one uniformly from the graph
    edges out of the reached waypoint.

    Attributes:
        nodes: explicit, distinct waypoint regions; empty means "sample
            ``k`` distinct regions from the (masked) tiling".
        k: number of waypoints to sample when ``nodes`` is empty.
        edges: directed waypoint-index pairs; empty means a ring
            ``0 → 1 → … → k-1 → 0``.  A waypoint with no edge out
            bounces back along the edges into it.
        speeds: per-edge dwell multipliers aligned with ``edges``
            (``2.0`` = a slow leg, dwells twice the base; the §VI floor
            still clamps from below).  Empty means all ``1.0``.
    """

    nodes: Tuple[RegionId, ...] = ()
    k: int = 4
    edges: Tuple[Tuple[int, int], ...] = ()
    speeds: Tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if not self.nodes and self.k < 2:
            raise ValueError("need at least two waypoints")
        if len(set(self.nodes)) != len(self.nodes):
            raise ValueError(f"nodes must be distinct regions, got {self.nodes}")
        if self.speeds and len(self.speeds) != len(self.edges):
            raise ValueError("speeds must align with edges")
        if not all(math.isfinite(s) and s > 0 for s in self.speeds):
            raise ValueError(f"speeds must be finite and positive, got {self.speeds}")

    def walk(self, hierarchy, rng, space=None):
        space = _space(hierarchy, space)
        if self.nodes:
            nodes = self.nodes
            missing = set(nodes) - set(space.regions())
            if missing:
                raise ValueError(f"waypoints not in the tiling: {sorted(missing)}")
        else:
            regions = list(space.regions())
            if len(regions) < self.k:
                raise ValueError(
                    f"tiling has {len(regions)} regions, cannot sample {self.k} waypoints"
                )
            nodes = tuple(rng.sample(regions, self.k))
        n = len(nodes)
        edges = self.edges or tuple((i, (i + 1) % n) for i in range(n))
        for i, j in edges:
            if not (0 <= i < n and 0 <= j < n) or i == j:
                raise ValueError(f"bad waypoint edge ({i}, {j}) for {n} nodes")
        out: Dict[int, Tuple[int, ...]] = {}
        for i, j in edges:
            out[i] = out.get(i, ()) + (j,)
        for i in range(n):
            if i not in out:
                back = tuple(a for a, b in edges if b == i)
                if not back:
                    raise ValueError(f"waypoint {i} is unreachable and has no edges")
                out[i] = back
        speeds = dict(zip(edges, self.speeds))

        def steps():
            at = target = rng.randrange(n)
            current = yield nodes[at]
            while True:
                while nodes[target] == current:
                    options = out[target]
                    at, target = target, options[rng.randrange(len(options))]
                step = _toward(space, current, nodes[target])
                current = yield step, speeds.get((at, target), 1.0)

        return steps()


@dataclass(frozen=True)
class Obstacles(GeneratorSpec):
    """Mask regions out of the tiling the inner generator walks.

    When a sibling under a combinator has carried the evader into the
    mask, the walk first steps greedily back toward the nearest allowed
    region, at the inner walk's last dwell factor.

    Attributes:
        inner: generator confined to the masked space.
        regions: explicit obstacle regions.
        density: additionally block this fraction of the remaining
            regions, sampled when the walk is built; candidates that
            would disconnect the walkable space are skipped (greedy
            connectivity-preserving selection).
    """

    inner: GeneratorSpec = field(default_factory=Walk)
    regions: Tuple[RegionId, ...] = ()
    density: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.density < 1.0:
            raise ValueError("density must be in [0, 1)")
        if not self.regions and self.density == 0.0:
            raise ValueError("obstacle field needs regions and/or density > 0")

    def mask(self, hierarchy, rng, space=None) -> GraphTiling:
        """Draw the obstacle field; the masked space the inner walk gets."""
        space = _space(hierarchy, space)
        blocked = list(self.regions)
        if self.density:
            total = len(list(space.regions()))
            budget = int(self.density * total)
            candidates = [r for r in space.regions() if r not in set(blocked)]
            order = rng.sample(candidates, len(candidates))
            for region in order:
                if len(blocked) >= budget + len(self.regions):
                    break
                try:
                    masked_tiling(space, blocked + [region])
                except ValueError:
                    continue
                blocked.append(region)
        return masked_tiling(space, blocked)

    def walk(self, hierarchy, rng, space=None):
        space = _space(hierarchy, space)
        masked = self.mask(hierarchy, rng, space)
        inner = self.inner.walk(hierarchy, rng, masked)
        allowed = set(masked.regions())

        def steps():
            current = yield next(inner)
            factor = 1.0
            while True:
                if current in allowed:
                    try:
                        step, factor = inner.send(current)
                    except StopIteration:
                        return
                else:
                    step = min(
                        space.neighbors(current),
                        key=lambda nb: (min(space.distance(nb, a) for a in allowed), nb),
                    )
                current = yield step, factor

        return steps()


@dataclass(frozen=True)
class Convoy(GeneratorSpec):
    """Group mobility: a leader plus bounded-offset followers.

    The walk is the **leader's** (a single evader is just the leader).
    :func:`repro.mobility.gen.trace.generate` expands the followers:
    follower ``k`` repeats the leader's path lagged by ``k * offset``
    steps, so the group stays within a bounded trail of the leader for
    the whole trace.
    """

    leader: GeneratorSpec = field(default_factory=Walk)
    followers: int = 2
    offset: int = 1

    def __post_init__(self) -> None:
        if self.followers < 1:
            raise ValueError("a convoy needs at least one follower")
        if self.offset < 1:
            raise ValueError("follower offset must be >= 1 step")

    def walk(self, hierarchy, rng, space=None):
        return self.leader.walk(hierarchy, rng, space)


@dataclass(frozen=True)
class Hotspots(GeneratorSpec):
    """Hotspot churn: walk toward time-varying attraction points.

    ``k`` candidate hotspots are sampled when the walk is built; every
    ``period`` steps the active hotspot is redrawn from the pool.  At
    the hotspot the walk orbits it with uniform neighbor steps.
    """

    k: int = 3
    period: int = 6

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("need at least one hotspot")
        if self.period < 1:
            raise ValueError("churn period must be >= 1 step")

    def walk(self, hierarchy, rng, space=None):
        space = _space(hierarchy, space)
        regions = list(space.regions())
        pool = tuple(rng.sample(regions, min(self.k, len(regions))))

        def steps():
            current = yield rng.choice(space.regions())
            for step in count():
                if step % self.period == 0:
                    hotspot = pool[rng.randrange(len(pool))]
                if hotspot == current:
                    move = rng.choice(space.neighbors(current))
                else:
                    move = _toward(space, current, hotspot)
                current = yield move, 1.0

        return steps()


@dataclass(frozen=True)
class Dither(GeneratorSpec):
    """Adversarial handover-maximizing path hugging the deepest cluster
    boundaries (Eppstein–Goodrich–Löffler-style dither).

    Each step moves to the neighbor separated from the current region at
    the most hierarchy levels, so nearly every relocation forces
    grows/shrinks through the deepest shared level (the most expensive
    §VI floor).  Ties break on the smallest region id: after the start
    the path is a pure function of the start region.
    """

    def walk(self, hierarchy, rng, space=None):
        space = _space(hierarchy, space)
        levels = range(hierarchy.max_level)

        def split(u: RegionId, v: RegionId) -> int:
            return sum(
                1 for lv in levels if hierarchy.cluster(u, lv) != hierarchy.cluster(v, lv)
            )

        def steps():
            current = yield rng.choice(space.regions())
            while True:
                move = min(
                    space.neighbors(current), key=lambda nb: (-split(current, nb), nb)
                )
                current = yield move, 1.0

        return steps()


@dataclass(frozen=True)
class Replay(GeneratorSpec):
    """Replay a recorded trace's region path; the walk ends with it.

    ``steps`` is the ``MobilityTrace.steps`` tuple of ``(time, region)``
    pairs (times are kept for provenance; the trace generator's §VI
    re-timing drives the replayed run).  Knocked off the path by a
    combinator sibling, the walk steps greedily back toward the next
    recorded region.
    """

    steps: Tuple[Tuple[float, RegionId], ...] = ()

    def __post_init__(self) -> None:
        if not self.steps:
            raise ValueError("replay needs a non-empty recorded trace")

    @property
    def path(self) -> Tuple[RegionId, ...]:
        return tuple(region for _, region in self.steps)

    def walk(self, hierarchy, rng, space=None):
        space = _space(hierarchy, space)
        path = self.path
        regions = set(space.regions())
        for i, region in enumerate(path):
            if region not in regions:
                raise ValueError(
                    f"replay step {i} enters {region!r}, outside the walk's space"
                )
            if i and not space.are_neighbors(path[i - 1], region):
                raise ValueError(
                    f"replayed hop {path[i - 1]!r} -> {region!r} is not a neighbor move"
                )

        def steps():
            index = 0
            current = yield path[0]
            while True:
                if current == path[index]:
                    if index + 1 == len(path):
                        return
                    index += 1
                current = yield _toward(space, current, path[index]), 1.0

        return steps()


@dataclass(frozen=True)
class Compose(GeneratorSpec):
    """Weighted per-step mixture of child generators."""

    parts: Tuple[GeneratorSpec, ...] = ()
    weights: Tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if len(self.parts) < 2:
            raise ValueError("Compose needs at least two parts")
        if self.weights and len(self.weights) != len(self.parts):
            raise ValueError("weights must align with parts")
        if not all(math.isfinite(w) and w > 0 for w in self.weights):
            raise ValueError(f"weights must be finite and positive, got {self.weights}")

    def walk(self, hierarchy, rng, space=None):
        walks = [p.walk(hierarchy, rng, space) for p in self.parts]
        cumulative = list(accumulate(self.weights or [1.0] * len(walks)))
        last = len(walks) - 1

        def pick(step: int) -> int:
            return min(bisect_right(cumulative, rng.random() * cumulative[-1]), last)

        return _drive(walks, pick)


@dataclass(frozen=True)
class Switch(GeneratorSpec):
    """Round-robin between child generators every ``every`` steps."""

    parts: Tuple[GeneratorSpec, ...] = ()
    every: int = 4

    def __post_init__(self) -> None:
        if len(self.parts) < 2:
            raise ValueError("Switch needs at least two parts")
        if self.every < 1:
            raise ValueError("switch period must be >= 1 step")

    def walk(self, hierarchy, rng, space=None):
        walks = [p.walk(hierarchy, rng, space) for p in self.parts]
        return _drive(walks, lambda step: (step // self.every) % len(walks))


@dataclass(frozen=True)
class TimeSlice(GeneratorSpec):
    """Piecewise schedule: part ``i`` drives steps below
    ``boundaries[i]``; the final part drives the remainder."""

    parts: Tuple[GeneratorSpec, ...] = ()
    boundaries: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if len(self.parts) < 2:
            raise ValueError("TimeSlice needs at least two parts")
        if len(self.boundaries) != len(self.parts) - 1:
            raise ValueError("need exactly one boundary between consecutive parts")
        if any(b <= 0 for b in self.boundaries) or list(self.boundaries) != sorted(
            set(self.boundaries)
        ):
            raise ValueError("boundaries must be positive and strictly increasing")

    def walk(self, hierarchy, rng, space=None):
        walks = [p.walk(hierarchy, rng, space) for p in self.parts]
        return _drive(walks, lambda step: bisect_right(self.boundaries, step))


#: The primitive generators (7) and combinators (3) the framework ships.
PRIMITIVES = (Walk, WaypointGraph, Obstacles, Convoy, Hotspots, Dither, Replay)
COMBINATORS = (Compose, Switch, TimeSlice)
