"""The unified workload protocol (DESIGN.md §9).

    a **workload** is anything with ``events(seed) -> iterable of
    timed actions``

where the actions are the frozen dataclasses :class:`EvaderEnter`,
:class:`EvaderStep` and :class:`IssueFind`.  :func:`materialize` turns
any workload into a canonical :class:`ScriptedWorkload` — time-sorted
(stable) and picklable — which :func:`~repro.sim.sharded.run_script`
executes on the plain engine or the sharded one.  Because both engines
execute the *same* materialized script, a workload's event stream is
bit-identical on the plain and any-K sharded engines.

:class:`~repro.service.load.LoadGenerator` is just another workload:
its ``events(seed)`` emits the open-loop arrival script for M objects
and K client origins.
"""

from __future__ import annotations

from typing import Iterable, Protocol, runtime_checkable

from .sim.sharded.workload import (
    EvaderEnter,
    EvaderStep,
    IssueFind,
    ScriptedWorkload,
    WorkloadAction,
    schedule_workload,
)

__all__ = [
    "EvaderEnter",
    "EvaderStep",
    "IssueFind",
    "ScriptedWorkload",
    "WorkloadAction",
    "Workload",
    "materialize",
    "schedule_workload",
]


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
    identical in every shard replica and on the plain engine.
    Idempotent: materializing a :class:`ScriptedWorkload` returns an
    equal script.
    """
    actions = tuple(sorted(workload.events(seed), key=lambda a: a.time))
    if not actions:
        raise ValueError("workload produced no actions")
    horizon = max(a.time for a in actions)
    return ScriptedWorkload(actions=actions, horizon=horizon)
