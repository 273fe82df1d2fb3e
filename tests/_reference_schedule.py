"""The eager scheduler ``schedule_workload`` replaced: the test oracle.

``schedule_eagerly`` pushes every action of a script as its own event
before the run starts — the queue holds the whole script.  The cursor
in :func:`repro.workload.schedule_workload` must fire the same events,
with the same tags, in the same order (tests/test_schedule_cursor.py).
"""

import random

from repro.mobility.evader import Evader
from repro.mobility.models import RandomNeighborWalk
from repro.workload import EvaderEnter, EvaderStep, check_world


def schedule_eagerly(system, workload, owns=None) -> int:
    """Every action of ``workload`` as one event on ``system`` now."""
    tiling = system.hierarchy.tiling
    check_world(workload, tiling)
    system.scripts.append(workload)
    sim = system.sim
    rng = random.Random(0)
    evader_of = system.object_evader

    def ensure_evader(region, object_id=0):
        evader = evader_of(object_id)
        if evader is None:
            evader = Evader(
                sim,
                tiling,
                RandomNeighborWalk(start=region),
                dwell=1e18,
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
        elif owns is not None and not owns(action.origin):

            def register(a=action):
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
        scheduled += 1
    return scheduled
