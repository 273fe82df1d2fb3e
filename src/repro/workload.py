"""A run's input script: its actions, their validity and their JSON.

The systems are timed I/O automata, so a run of a built world is a
function of its :class:`~repro.scenario.ScenarioConfig` and its input
script.  This module is the one place a script is defined (DESIGN.md
§9):

* the timed actions :class:`EvaderEnter`, :class:`EvaderStep` and
  :class:`IssueFind`;
* :class:`ScriptedWorkload` — a frozen, time-ordered action tuple,
  valid by construction: anything else raises :class:`ScriptError`;
* :func:`materialize` — any :class:`Workload` (anything with
  ``events(seed)``) frozen into a script: the one sort, the one horizon;
* :func:`schedule_workload` — a script as events on a built world,
  refusing an action that names a region outside it;
* the closed JSON value table a checkpoint stores a world's config and
  scripts in (:func:`encode_inputs`, :func:`decode_inputs`).

Both engines execute the *same* materialized script, so a workload's
event stream is bit-identical on the plain and any-K sharded engines.
Generators keep causally-independent actions off each other's instants
with :data:`STAGGER` and :func:`unique_time`.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, fields
from functools import partial
from math import inf
from operator import attrgetter
from typing import Any, Callable, Iterable, Optional, Protocol, Set, Tuple, Union
from typing import runtime_checkable

from .energy.model import EnergyModel
from .faults import plan as _plan
from .geometry.regions import RegionId
from .scenario import ScenarioConfig
from .stabilization.stabilizing_tracker import StabilizationConfig

__all__ = [
    "EvaderEnter", "EvaderStep", "IssueFind", "STAGGER", "ScriptError",
    "ScriptedWorkload", "WorkloadAction", "Workload", "check_world",
    "decode_inputs", "encode_inputs", "materialize", "schedule_workload",
    "unique_time",
]

#: Offset between a generator's consecutive objects or finds.  Same-instant
#: causally-independent events are ordered by the serial engine's
#: scheduling order, which a partitioned run cannot reproduce (DESIGN.md
#: §8), so generators never manufacture them; a power of two, so the
#: offsets add exactly.
STAGGER = 1.0 / 1024.0


def unique_time(t: float, used: Set[float]) -> float:
    """``t``, nudged by ``STAGGER / 4`` until not in ``used``; added there."""
    while t in used:
        t += STAGGER / 4.0
    used.add(t)
    return t


@dataclass(frozen=True, slots=True)
class EvaderEnter:
    """Place object ``object_id``'s evader at ``region`` (first ``move``)."""

    time: float
    region: RegionId
    object_id: int = 0


@dataclass(frozen=True, slots=True)
class EvaderStep:
    """Move object ``object_id``'s evader to neighboring ``target``."""

    time: float
    target: RegionId
    object_id: int = 0


@dataclass(frozen=True, slots=True)
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


class ScriptError(ValueError):
    """A script no world can run, or one its world cannot run.

    ``index`` is the position of the refused action in the script.
    """

    def __init__(self, index: int, action: Any, problem: str) -> None:
        super().__init__(f"script action {index} ({action!r}) {problem}")
        self.index = index


@dataclass(frozen=True)
class ScriptedWorkload:
    """A time-ordered, picklable action script.

    Valid by construction — the constructor raises :class:`ScriptError`
    at the first action that is not an :class:`EvaderEnter`,
    :class:`EvaderStep` or :class:`IssueFind`, whose time is not finite,
    is negative or precedes the previous action's, or that steps an
    object before its enter or enters it twice.

    Attributes:
        actions: Actions sorted by time (stable: equal-time actions
            keep generation order, which fixes the same-time tiebreak
            in every shard).
        horizon: Time of the last scripted action.
    """

    actions: Tuple[WorkloadAction, ...]
    horizon: float

    def __post_init__(self) -> None:
        if type(self.actions) is not tuple:
            kind = type(self.actions).__name__
            raise TypeError(f"script actions are a tuple, not a {kind}")
        entered = set()
        last = 0.0
        for index, action in enumerate(self.actions):
            kind = type(action)
            if kind is EvaderStep:
                if action.object_id not in entered:
                    problem = "steps an object before it enters"
                    raise ScriptError(index, action, problem)
            elif kind is EvaderEnter:
                if action.object_id in entered:
                    problem = "enters an object a second time"
                    raise ScriptError(index, action, problem)
                entered.add(action.object_id)
            elif kind is not IssueFind:
                raise ScriptError(index, action, "is not a script action")
            if not last <= action.time < inf:  # also refuses NaN
                raise ScriptError(
                    index, action, f"is not at a finite time >= {last!r}"
                )
            last = action.time

    def events(self, seed: int = 0) -> Tuple[WorkloadAction, ...]:
        """Workload protocol: a script is its own (seed-free) stream."""
        return self.actions

    @classmethod
    def of(cls, actions: Iterable[WorkloadAction]) -> "ScriptedWorkload":
        """``actions`` stably sorted by time, the horizon the last one's."""
        ordered = tuple(sorted(actions, key=attrgetter("time")))
        if not ordered:
            raise ValueError("workload produced no actions")
        return cls(actions=ordered, horizon=ordered[-1].time)


@runtime_checkable
class Workload(Protocol):
    """Anything that yields timed actions for a given seed."""

    def events(self, seed: int = 0) -> Iterable[WorkloadAction]:
        """The action stream; must be a pure function of ``seed``."""
        ...  # pragma: no cover - protocol


def materialize(workload: Workload, seed: int = 0) -> ScriptedWorkload:
    """Freeze any workload into a canonical, picklable script.

    Actions are sorted by time with a *stable* sort, so equal-time
    actions keep generation order — the same-time tiebreak is then
    identical in every shard replica and on the plain engine.  A
    :class:`ScriptedWorkload` is already one: it comes back as it is.
    """
    if isinstance(workload, ScriptedWorkload):
        return workload
    return ScriptedWorkload.of(workload.events(seed))


# ----------------------------------------------------------------------
# A script on its world
# ----------------------------------------------------------------------
def check_world(workload: ScriptedWorkload, tiling) -> None:
    """Raise :class:`ScriptError` at the first action naming a region
    that is not one of ``tiling``'s (each distinct region asked once)."""
    known = set()
    for index, action in enumerate(workload.actions):
        kind = type(action)
        region = (action.region if kind is EvaderEnter
                  else action.target if kind is EvaderStep else action.origin)
        if region not in known:
            try:
                tiling.index(region)
            except KeyError:
                raise ScriptError(index, action, "names a region outside the world") from None
            known.add(region)


def schedule_workload(
    system,
    workload: ScriptedWorkload,
    owns: Optional[Callable[[RegionId], bool]] = None,
) -> int:
    """Schedule ``workload``'s actions as events on ``system``'s simulator.

    The script is appended to ``system.scripts``: a checkpoint of the
    world records it there and replays it on restore.

    One cursor walks the script: the queue holds only its next action,
    which pushes its successor as it fires, before its effect, at a
    sequence number reserved here — the order of a queue holding the
    whole script from now on.

    Replication rule: evader actions fire in **every** shard (the evader
    is replicated world state), an ``IssueFind`` only in the shard owning
    its origin.  Find ids are pre-assigned in script order, so the
    per-shard coordinators allocate the global ids the serial run would.

    Args:
        system: A built VineStalk-like system (fresh: no evader yet).
        workload: The script to apply.
        owns: Region-ownership predicate.  Evader actions are always
            scheduled (replicated state); ``IssueFind`` actions only
            when their origin is owned.  ``None`` schedules everything
            — the serial reference behavior.

    Returns:
        The script's length: every action fires, one pending at a time.

    Raises:
        ScriptError: an action names a region outside the world; nothing
            is scheduled.
        SimulationError: the first action lies before the clock.
    """
    from .mobility.evader import Evader
    from .mobility.models import RandomNeighborWalk
    from .sim.engine import SimulationError

    tiling = system.hierarchy.tiling
    check_world(workload, tiling)
    system.scripts.append(workload)
    actions = workload.actions
    sim = system.sim
    if not actions:
        return 0
    if actions[0].time < sim.now:
        raise SimulationError(f"script starts at t={actions[0].time} before now={sim.now}")
    queue = sim._queue
    first = queue.reserve(len(actions))
    # Shared by the script's evaders (2.5 KB of Mersenne Twister each
    # otherwise): they never draw — fixed start, dwell timer never runs
    # — so no draw can depend on their order.
    rng = random.Random(0)
    evader_of = system.object_evader

    def push(index: int) -> None:
        action = actions[index]
        kind = type(action)
        tag = ("workload:enter" if kind is EvaderEnter
               else "workload:move" if kind is EvaderStep
               else "workload:find" if owns is None or owns(action.origin)
               else "workload:find-register")
        queue.push_reserved(first + index, action.time, partial(fire, index, tag), 0, tag)

    def fire(index: int, tag: str) -> None:
        if index + 1 < len(actions):
            push(index + 1)
        a = actions[index]
        if tag == "workload:move":
            evader_of(a.object_id).move_to(a.target)
        elif tag == "workload:find":
            system.issue_find(a.origin, find_id=a.find_id, object_id=a.object_id,
                              deadline=a.deadline)
        elif tag == "workload:enter":
            evader = evader_of(a.object_id)
            if evader is None:
                evader = Evader(sim, tiling, RandomNeighborWalk(start=a.region),
                                dwell=1e18,  # scripted: the dwell timer never runs
                                rng=rng, object_id=a.object_id,
                                name=f"evader:{a.object_id}" if a.object_id else "evader")
                system.attach_object(a.object_id, evader)
            evader.enter(a.region)
        else:
            # An unowned find's record must exist in *every* shard: the
            # `found` output fires at the evader's current region (its
            # client is the one with evader_here set), which any shard
            # may own.  Bookkeeping only — the owning shard delivers
            # the find input itself.
            evader = evader_of(a.object_id)
            system.finds.new_find(a.origin, None if evader is None else evader.region,
                                  find_id=a.find_id, object_id=a.object_id,
                                  deadline=a.deadline)

    push(0)
    return len(actions)


# ----------------------------------------------------------------------
# JSON: the closed value table
# ----------------------------------------------------------------------
#: The value types a run's inputs can hold, by class name.  Decoding
#: calls only these constructors, so their ``__post_init__`` checks run
#: on what a file holds, and no code or object graph is ever read.
_TYPES = {
    cls.__name__: cls
    for cls in (
        ScenarioConfig, EnergyModel, StabilizationConfig,
        _plan.FaultPlan, _plan.MessageLoss, _plan.MessageDuplication,
        _plan.MessageJitter, _plan.LagSpike, _plan.VsaCrashes,
        _plan.RegionBlackout, _plan.GpsStaleness,
        EvaderEnter, EvaderStep, IssueFind, ScriptedWorkload,
    )
}
_FIELDS = {name: tuple(f.name for f in fields(cls)) for name, cls in _TYPES.items()}


def _encode(value: Any) -> Any:
    """``value`` as JSON: tuples become lists, table types one-key dicts."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, tuple):
        return [_encode(item) for item in value]
    name = type(value).__name__
    if _TYPES.get(name) is not type(value):
        raise ValueError(f"a checkpoint cannot hold a {name}")
    encoded = {}
    for key in _FIELDS[name]:
        try:
            encoded[key] = _encode(getattr(value, key))
        except ValueError as exc:
            raise ValueError(f"{name}.{key}: {exc}") from None
    return {name: encoded}


def _decode(data: Any) -> Any:
    """Inverse of :func:`_encode`; builds only table types."""
    if isinstance(data, list):
        return tuple(_decode(item) for item in data)
    if isinstance(data, dict):
        ((name, values),) = data.items()
        return _TYPES[name](**{key: _decode(item) for key, item in values.items()})
    return data


def encode_inputs(
    config: ScenarioConfig, scripts: Tuple[ScriptedWorkload, ...]
) -> bytes:
    """A world's config and scripts as canonical JSON bytes.

    Raises:
        ValueError: a value the table cannot hold (an explicit
            ``hierarchy`` or ``schedule``, a class as ``system``); the
            message names the field.
    """
    document = {"config": _encode(config), "scripts": _encode(scripts)}
    return json.dumps(document, sort_keys=True, separators=(",", ":")).encode()


def decode_inputs(
    payload: bytes,
) -> Tuple[ScenarioConfig, Tuple[ScriptedWorkload, ...]]:
    """Inverse of :func:`encode_inputs`.

    Raises:
        ValueError: not JSON, not a config and its scripts, or a value
            a constructor refuses (:class:`ScriptError` for a script).
        AttributeError, KeyError, TypeError: a document of another shape.
    """
    document = json.loads(payload)
    config = _decode(document.pop("config"))
    scripts = _decode(document.pop("scripts"))
    if not (
        not document
        and isinstance(config, ScenarioConfig)
        and isinstance(scripts, tuple)
        and all(isinstance(script, ScriptedWorkload) for script in scripts)
    ):
        raise ValueError("not a config and its scripts")
    return config, scripts
