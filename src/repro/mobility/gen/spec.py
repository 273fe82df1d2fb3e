"""Frozen generator combinators — the declarative mobility DSL.

A :class:`GeneratorSpec` tree is a small, picklable description of a
mobility regime.  Specs carry **no runtime state**: ``resolve()`` turns
a spec into a fresh :class:`~repro.mobility.models.MobilityModel` for
one evader, drawing every placement decision (waypoint sampling,
obstacle selection) from the rng stream the caller passes — so the same
``(spec, seed)`` pair always yields the same model, and a forked
registry yields a divergent one.

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

``GeneratedWalk(mobility=...)`` accepts a spec or a registry preset name
(:mod:`repro.mobility.gen.presets`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

from ...geometry.regions import RegionId
from .models import (
    ComposeModel,
    DitherModel,
    HotspotModel,
    MaskedModel,
    ReplayModel,
    SwitchModel,
    TimeSliceModel,
    UniformWalkModel,
    WaypointGraphModel,
    masked_tiling,
)


@dataclass(frozen=True)
class GeneratorSpec:
    """Base class for mobility-generator combinators."""

    def resolve(self, hierarchy, rng, tiling=None):
        """Build a fresh mobility model for one evader.

        ``tiling`` overrides ``hierarchy.tiling`` when an enclosing
        :class:`Obstacles` node has already masked the space.
        """
        raise NotImplementedError

    def _space(self, hierarchy, tiling):
        return hierarchy.tiling if tiling is None else tiling


@dataclass(frozen=True)
class Walk(GeneratorSpec):
    """Uniform random neighbor walk."""

    def resolve(self, hierarchy, rng, tiling=None):
        return UniformWalkModel()


@dataclass(frozen=True)
class WaypointGraph(GeneratorSpec):
    """Patrol a waypoint graph with per-edge speed profiles.

    Attributes:
        nodes: explicit waypoint regions; empty means "sample ``k``
            distinct regions from the (masked) tiling at resolve time".
        k: number of waypoints to sample when ``nodes`` is empty.
        edges: directed waypoint-index pairs; empty means a ring
            ``0 → 1 → … → k-1 → 0``.
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
        if self.speeds and len(self.speeds) != len(self.edges):
            raise ValueError("speeds must align with edges")
        if any(s <= 0 for s in self.speeds):
            raise ValueError("edge speeds must be positive")

    def resolve(self, hierarchy, rng, tiling=None):
        space = self._space(hierarchy, tiling)
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
            # Dead-end waypoints bounce back along reverse edges.
            if i not in out:
                back = tuple(a for a, b in edges if b == i)
                if not back:
                    raise ValueError(f"waypoint {i} is unreachable and has no edges")
                out[i] = back
        speeds = {
            edge: (self.speeds[idx] if self.speeds else 1.0)
            for idx, edge in enumerate(edges)
        }
        return WaypointGraphModel(nodes=nodes, edges=out, speeds=speeds)


@dataclass(frozen=True)
class Obstacles(GeneratorSpec):
    """Mask regions out of the tiling the inner generator walks.

    Attributes:
        inner: generator confined to the masked space.
        regions: explicit obstacle regions.
        density: additionally block this fraction of the remaining
            regions, sampled at resolve time; candidates that would
            disconnect the walkable space are skipped (greedy
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

    def resolve(self, hierarchy, rng, tiling=None):
        space = self._space(hierarchy, tiling)
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
        masked = masked_tiling(space, blocked)
        inner = self.inner.resolve(hierarchy, rng, tiling=masked)
        return MaskedModel(inner, masked, tuple(blocked))


@dataclass(frozen=True)
class Convoy(GeneratorSpec):
    """Group mobility: a leader plus bounded-offset followers.

    Resolving yields the **leader's** model (a single evader is just the
    leader).  :func:`repro.mobility.gen.trace.generate` expands the
    followers: follower ``k`` repeats the leader's path lagged by
    ``k * offset`` steps, so the group stays within a bounded trail of
    the leader for the whole trace.
    """

    leader: GeneratorSpec = field(default_factory=Walk)
    followers: int = 2
    offset: int = 1

    def __post_init__(self) -> None:
        if self.followers < 1:
            raise ValueError("a convoy needs at least one follower")
        if self.offset < 1:
            raise ValueError("follower offset must be >= 1 step")

    def resolve(self, hierarchy, rng, tiling=None):
        return self.leader.resolve(hierarchy, rng, tiling=tiling)


@dataclass(frozen=True)
class Hotspots(GeneratorSpec):
    """Hotspot churn: walk toward time-varying attraction points.

    ``k`` candidate hotspots are sampled at resolve time; every
    ``period`` steps the active hotspot is redrawn from the pool.
    """

    k: int = 3
    period: int = 6

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("need at least one hotspot")
        if self.period < 1:
            raise ValueError("churn period must be >= 1 step")

    def resolve(self, hierarchy, rng, tiling=None):
        space = self._space(hierarchy, tiling)
        regions = list(space.regions())
        pool = tuple(rng.sample(regions, min(self.k, len(regions))))
        return HotspotModel(pool=pool, period=self.period)


@dataclass(frozen=True)
class Dither(GeneratorSpec):
    """Adversarial handover-maximizing path hugging the deepest cluster
    boundaries (Eppstein–Goodrich–Löffler-style dither)."""

    def resolve(self, hierarchy, rng, tiling=None):
        return DitherModel(hierarchy)


@dataclass(frozen=True)
class Replay(GeneratorSpec):
    """Replay a recorded trace's region path as a mobility model.

    ``steps`` is the ``MobilityTrace.steps`` tuple of ``(time, region)``
    pairs (times are kept for provenance; the evader's own dwell clock —
    or the trace generator's §VI re-timing — drives the replayed run).
    """

    steps: Tuple[Tuple[float, RegionId], ...] = ()

    def __post_init__(self) -> None:
        if not self.steps:
            raise ValueError("replay needs a non-empty recorded trace")

    @property
    def path(self) -> Tuple[RegionId, ...]:
        return tuple(region for _, region in self.steps)

    def resolve(self, hierarchy, rng, tiling=None):
        return ReplayModel(self.path)


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
        if any(w <= 0 for w in self.weights):
            raise ValueError("weights must be positive")

    def resolve(self, hierarchy, rng, tiling=None):
        models = tuple(p.resolve(hierarchy, rng, tiling=tiling) for p in self.parts)
        weights = self.weights or tuple(1.0 for _ in self.parts)
        return ComposeModel(models, weights)


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

    def resolve(self, hierarchy, rng, tiling=None):
        models = tuple(p.resolve(hierarchy, rng, tiling=tiling) for p in self.parts)
        return SwitchModel(models, self.every)


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

    def resolve(self, hierarchy, rng, tiling=None):
        models = tuple(p.resolve(hierarchy, rng, tiling=tiling) for p in self.parts)
        return TimeSliceModel(models, self.boundaries)


#: The primitive generators (6) and combinators (3) the framework ships.
PRIMITIVES = (Walk, WaypointGraph, Obstacles, Convoy, Hotspots, Dither, Replay)
COMBINATORS = (Compose, Switch, TimeSlice)
