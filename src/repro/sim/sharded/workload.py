"""Scripted workloads: picklable timed drive for sharded execution.

The experiment harness normally drives a system imperatively (call
``evader.step()``, run to quiescence, repeat).  That style cannot cross
process boundaries, and — more fundamentally — sharded execution needs
every shard replica to apply the *same* external stimuli in the *same*
order.  A :class:`ScriptedWorkload` is the bridge: a frozen list of
timed actions, fully determined by its generator's seed, that
:func:`schedule_workload` turns into ordinary simulator events.

Replication rule: evader actions are scheduled in **every** shard (the
evader is replicated world state; each replica moves identically),
while ``IssueFind`` actions are scheduled only in the shard owning the
origin region (the find's first message originates at that region's
client).  Find ids are pre-assigned in script order, so the per-shard
coordinators allocate the same global ids the serial run would.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Optional, Tuple, Union

from ...faults.plan import default_plan
from ...geometry.regions import RegionId


@dataclass(frozen=True)
class EvaderEnter:
    """Place object ``object_id``'s evader at ``region`` (first ``move``)."""

    time: float
    region: RegionId
    object_id: int = 0


@dataclass(frozen=True)
class EvaderStep:
    """Move object ``object_id``'s evader to neighboring ``target``."""

    time: float
    target: RegionId
    object_id: int = 0


@dataclass(frozen=True)
class IssueFind:
    """Issue a find at ``origin``'s client with a pre-assigned id.

    ``object_id`` selects which tracked object the query targets;
    ``deadline`` is an optional latency budget recorded on the find
    (service-level miss-rate accounting — it does not affect the
    protocol).
    """

    time: float
    origin: RegionId
    find_id: int
    object_id: int = 0
    deadline: Optional[float] = None


WorkloadAction = Union[EvaderEnter, EvaderStep, IssueFind]


@dataclass(frozen=True)
class ScriptedWorkload:
    """A time-ordered, picklable action script.

    Attributes:
        actions: Actions sorted by time (stable: equal-time actions
            keep generation order, which fixes the same-time tiebreak
            in every shard).
        horizon: Time of the last scripted action.
    """

    actions: Tuple[WorkloadAction, ...]
    horizon: float

    def events(self, seed: int = 0) -> Tuple[WorkloadAction, ...]:
        """Workload protocol: a script is its own (seed-free) stream."""
        return self.actions


def make_walk_workload(
    tiling,
    n_moves: int,
    n_finds: int,
    seed: int,
    dwell: float = 40.0,
    start: Optional[RegionId] = None,
) -> ScriptedWorkload:
    """A random neighbor walk with interleaved find queries.

    The evader enters at ``start`` (default: the center region) at
    ``t=0`` and steps to a uniformly drawn neighbor every ``dwell``
    time units.  ``n_finds`` finds are issued from uniformly drawn
    origins at mid-dwell offsets, cycling over the walk — a large
    ``n_finds`` therefore yields *concurrent* find storms, the regime
    where sharded execution has work to parallelize.

    Fully determined by ``(tiling, n_moves, n_finds, seed, dwell,
    start)``.
    """
    rng = random.Random(seed)
    regions = list(tiling.regions())
    if start is None:
        start = regions[len(regions) // 2]
    actions: list = [EvaderEnter(0.0, start)]
    current = start
    for i in range(1, n_moves + 1):
        current = rng.choice(list(tiling.neighbors(current)))
        actions.append(EvaderStep(float(i) * dwell, current))
    slots = max(1, n_moves)
    for j in range(n_finds):
        # Every find gets a globally unique issue time: the j/1024
        # stagger keeps two find chains (whose hop delays are multiples
        # of 0.5) from ever colliding at the same cluster at the same
        # instant, for any pair with |j1 - j2| < 512.  Same-instant
        # causally-independent collisions are ordered by global
        # scheduling order in the serial engine — an order a
        # partitioned run cannot reproduce (see DESIGN.md §8,
        # Limitations) — so the generator avoids manufacturing them
        # while still keeping many finds in flight concurrently.
        at = (float(j % slots) + 0.5) * dwell + float(j) / 1024.0
        origin = rng.choice(regions)
        actions.append(IssueFind(at, origin, j + 1))
    actions.sort(key=lambda a: a.time)  # stable: preserves script order
    horizon = max(a.time for a in actions)
    return ScriptedWorkload(actions=tuple(actions), horizon=horizon)


def walk_scenario(
    r: int = 2,
    max_level: int = 3,
    shards: int = 2,
    n_moves: int = 8,
    n_finds: int = 4,
    seed: int = 11,
    loss_rate: float = 0.0,
    jitter_rate: float = 0.0,
):
    """The scripted walk as ``(config at K shards, its frozen script)``.

    ``repro snapshot`` writes it to a run file; tests run it with
    ``run_script(*walk_scenario(...), backend)``.
    """
    from ...scenario import ScenarioConfig
    from .core import _tiling_for

    plan = default_plan(loss_rate=loss_rate, jitter_rate=jitter_rate, jitter_max=0.5)
    config = ScenarioConfig(
        r=r,
        max_level=max_level,
        seed=seed,
        shards=shards,
        # No injector for a null plan: the record's fault_events stay None.
        fault_plan=None if plan.is_null() else plan,
    )
    return config, make_walk_workload(_tiling_for(config), n_moves, n_finds, seed)


def schedule_workload(
    system,
    workload: ScriptedWorkload,
    owns: Optional[Callable[[RegionId], bool]] = None,
) -> int:
    """Schedule ``workload``'s actions as events on ``system``'s simulator.

    The script is appended to ``system.scripts``: a checkpoint of the
    world records it there and replays it on restore.

    Args:
        system: A built VineStalk-like system (fresh: no evader yet).
        workload: The script to apply.
        owns: Region-ownership predicate.  Evader actions are always
            scheduled (replicated state); ``IssueFind`` actions only
            when their origin is owned.  ``None`` schedules everything
            — the serial reference behavior.

    Returns:
        Number of events scheduled.
    """
    from ...mobility.evader import Evader
    from ...mobility.models import RandomNeighborWalk

    system.scripts.append(workload)
    sim = system.sim
    tiling = system.hierarchy.tiling
    # Shared by the script's evaders (2.5 KB of Mersenne Twister each
    # otherwise): they never draw — fixed start, dwell timer never runs
    # — so no draw can depend on their order.
    rng = random.Random(0)

    evader_of = system.object_evader

    def ensure_evader(region: RegionId, object_id: int = 0) -> None:
        evader = evader_of(object_id)
        if evader is None:
            evader = Evader(
                sim,
                tiling,
                RandomNeighborWalk(start=region),
                dwell=1e18,  # scripted: the dwell timer never runs
                rng=rng,
                name="evader" if object_id == 0 else f"evader:{object_id}",
                object_id=object_id,
            )
            system.attach_object(object_id, evader)
        evader.enter(region)

    scheduled = 0
    for action in workload.actions:
        if isinstance(action, EvaderEnter):
            sim.call_at(
                action.time,
                lambda a=action: ensure_evader(a.region, a.object_id),
                tag="workload:enter",
            )
        elif isinstance(action, EvaderStep):
            sim.call_at(
                action.time,
                lambda a=action: evader_of(a.object_id).move_to(a.target),
                tag="workload:move",
            )
        elif isinstance(action, IssueFind):
            if owns is not None and not owns(action.origin):
                # The record must exist in *every* shard: the `found`
                # output fires at the evader's current region (its
                # client is the one with evader_here set), which may be
                # owned by any shard.  Register bookkeeping only — the
                # find input itself is delivered in the owning shard.
                def register(a=action) -> None:
                    evader = evader_of(a.object_id)
                    system.finds.new_find(
                        a.origin,
                        evader.region if evader is not None else None,
                        find_id=a.find_id,
                        object_id=a.object_id,
                        deadline=a.deadline,
                    )

                sim.call_at(action.time, register, tag="workload:find-register")
            else:
                sim.call_at(
                    action.time,
                    lambda a=action: system.issue_find(
                        a.origin,
                        find_id=a.find_id,
                        object_id=a.object_id,
                        deadline=a.deadline,
                    ),
                    tag="workload:find",
                )
        else:  # pragma: no cover - defensive
            raise TypeError(f"unknown workload action {action!r}")
        scheduled += 1
    return scheduled
