"""Seeded trace generation and workload export.

``generate()`` drives a spec's walk over the hierarchy's tiling and
emits §VI-legal :class:`MobilityTrace` objects: each dwell is the base
dwell scaled by the walk's per-step dwell factor and clamped from below
by the :class:`~repro.mobility.gen.limits.SpeedLimits` floor for the
move that *arrived* at the current region (the enter pays the
worst-case floor, like the paper's join).

Determinism contract: all step randomness is drawn from
``RngRegistry(seed)`` stream ``"mobility.gen:<object_id>"`` (find
placement from ``"mobility.gen:finds"``), so the same ``(spec, seed)``
pair is byte-identical.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ...geometry.regions import RegionId
from ...sim.rng import RngRegistry
from ...workload import (
    STAGGER,
    EvaderEnter,
    EvaderStep,
    IssueFind,
    ScriptedWorkload,
    unique_time,
)
from .limits import SpeedLimits
from .spec import Convoy, GeneratorSpec

#: Size of the seeded client-origin pool :func:`trace_workload` draws
#: find origins from.
FIND_CLIENTS = 4


@dataclass(frozen=True)
class MobilityTrace:
    """One evader's timed region path: ``steps[0]`` is the enter."""

    steps: Tuple[Tuple[float, RegionId], ...]
    object_id: int = 0

    def __post_init__(self) -> None:
        if not self.steps:
            raise ValueError("a trace needs at least the enter step")
        times = [t for t, _ in self.steps]
        if times != sorted(times) or len(set(times)) != len(times):
            raise ValueError("trace times must be strictly increasing")

    @property
    def regions(self) -> Tuple[RegionId, ...]:
        return tuple(region for _, region in self.steps)

    @property
    def times(self) -> Tuple[float, ...]:
        return tuple(t for t, _ in self.steps)

    def dwells(self) -> Tuple[float, ...]:
        times = self.times
        return tuple(b - a for a, b in zip(times, times[1:]))

    def crc(self) -> int:
        """A stable content fingerprint (used by the golden tests)."""
        payload = repr((self.object_id, self.steps)).encode()
        return zlib.crc32(payload) & 0xFFFFFFFF


def generate(
    spec: GeneratorSpec,
    hierarchy,
    n_moves: int,
    seed: int = 0,
    n_objects: int = 1,
    base_dwell: Optional[float] = None,
    delta: float = 1.0,
    e: float = 0.5,
    mode: str = "concurrent",
) -> Tuple[MobilityTrace, ...]:
    """Generate §VI-legal traces for ``n_objects`` evaders.

    ``base_dwell`` is the pre-clamp dwell target (``None`` means "the
    floor itself", i.e. move as fast as §VI allows); the walk's dwell
    factor scales it per step, and the §VI floor clamps from below
    either way.  A trace has ``n_moves`` moves unless a
    :class:`~repro.mobility.gen.spec.Replay` runs out first; a walk that
    stays is refused with a :class:`ValueError`.  A
    :class:`~repro.mobility.gen.spec.Convoy` spec expands its followers
    here (lagged copies of the leader's path), so ``n_objects`` grows to
    ``1 + followers`` automatically.
    """
    if n_moves < 1:
        raise ValueError("need at least one move")
    registry = RngRegistry(seed)
    limits = SpeedLimits.for_hierarchy(hierarchy, delta=delta, e=e, mode=mode)
    if isinstance(spec, Convoy):
        leader = _generate_one(
            spec, hierarchy, n_moves, registry, 0, limits, base_dwell
        )
        traces = [leader]
        for k in range(1, max(n_objects, 1 + spec.followers)):
            traces.append(_lagged_follower(leader, k, spec.offset))
        return tuple(traces)
    return tuple(
        _generate_one(spec, hierarchy, n_moves, registry, k, limits, base_dwell)
        for k in range(n_objects)
    )


def _generate_one(
    spec: GeneratorSpec,
    hierarchy,
    n_moves: int,
    registry: RngRegistry,
    object_id: int,
    limits: SpeedLimits,
    base_dwell: Optional[float],
) -> MobilityTrace:
    walk = spec.walk(hierarchy, registry.stream(f"mobility.gen:{object_id}"))
    current = next(walk)
    t = object_id * STAGGER
    steps: List[Tuple[float, RegionId]] = [(t, current)]
    for i in range(n_moves):
        try:
            target, factor = walk.send(current)
        except StopIteration:
            break  # a replay ran out; the trace ends with it
        if target == current:
            raise ValueError(f"step {i + 1}: the walk stayed at {current!r}")
        if i == 0:
            floor = limits.enter_floor
        else:
            floor = limits.required(hierarchy, steps[-2][1], current)
        dwell = max(floor, (base_dwell if base_dwell is not None else floor) * factor)
        t += dwell
        steps.append((t, target))
        current = target
    return MobilityTrace(steps=tuple(steps), object_id=object_id)


def _lagged_follower(leader: MobilityTrace, k: int, offset: int) -> MobilityTrace:
    """Follower ``k`` repeats the leader's path lagged ``k*offset`` steps.

    Each follower move mirrors a leader move between the *same* region
    pair at the leader's own (later) step times, so the §VI floors the
    leader satisfied carry over move-for-move; the ``k * STAGGER`` shift
    keeps all group events causally ordered.
    """
    lag = k * offset
    shift = k * STAGGER
    path = leader.regions
    times = leader.times
    steps: List[Tuple[float, RegionId]] = [(times[0] + shift, path[0])]
    for i in range(lag + 1, len(path)):
        steps.append((times[i] + shift, path[i - lag]))
    return MobilityTrace(steps=tuple(steps), object_id=k)


def trace_workload(
    traces: Sequence[MobilityTrace],
    n_finds: int = 0,
    hierarchy=None,
    seed: int = 0,
) -> ScriptedWorkload:
    """Export generated traces as a canonical engine script.

    Finds are drawn from the registry's ``"mobility.gen:finds"`` stream:
    origins rotate over :data:`FIND_CLIENTS` seeded client regions,
    targets over the traced objects, and issue times are spread across
    the movement window with the usual ``j * STAGGER`` offset made
    unique (no two script actions may share an instant).
    """
    if not traces:
        raise ValueError("need at least one trace")
    actions: List[object] = []
    used = set()
    for trace in traces:
        oid = trace.object_id
        t0, start = trace.steps[0]
        actions.append(EvaderEnter(unique_time(t0, used), start, oid))
        for t, region in trace.steps[1:]:
            actions.append(EvaderStep(unique_time(t, used), region, oid))
    if n_finds:
        rng = RngRegistry(seed).stream("mobility.gen:finds")
        if hierarchy is not None:
            regions = list(hierarchy.tiling.regions())
        else:
            regions = sorted({r for tr in traces for r in tr.regions})
        clients = [
            regions[rng.randrange(len(regions))]
            for _ in range(min(FIND_CLIENTS, len(regions)))
        ]
        first = min(tr.steps[0][0] for tr in traces)
        span = max(max(tr.steps[-1][0] for tr in traces) - first, 1.0)
        for j in range(n_finds):
            frac = (j + 1) / (n_finds + 1)
            actions.append(
                IssueFind(
                    time=unique_time(first + frac * span + j * STAGGER, used),
                    origin=clients[j % len(clients)],
                    find_id=j + 1,
                    object_id=traces[j % len(traces)].object_id,
                )
            )
    return ScriptedWorkload.of(actions)

