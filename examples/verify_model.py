#!/usr/bin/env python3
"""The §IV-C verification machinery, hands on.

Runs one evader move on the real simulator and shows:

1. that interrupting the execution at *any* point and applying
   ``lookAhead`` (Fig. 3) lands exactly on ``atomicMoveSeq``'s
   consistent state — Theorem 4.8;
2. the move's update cascade (grow racing shrink), as the typed obs
   events it emitted: every C-gcast dispatch and every grow/shrink sent;
3. the consistency checker accepting the settled state.

Run:  python examples/verify_model.py
"""

import repro.obs as obs
from repro.api import ScenarioConfig, build
from repro.core import (
    atomic_move_seq,
    capture_snapshot,
    check_consistent,
    look_ahead,
)
from repro.mobility import FixedPath
from repro.obs import GrowSent, MessageDispatched, ShrinkSent


def describe(event, start: float) -> str:
    """One line of the cascade, times relative to the move."""
    at = f"  t={event.time - start:6.2f}  "
    if isinstance(event, MessageDispatched):
        return (f"{at}{event.payload:<8} {event.src!r} -> {event.dest!r}, "
                f"arrives +{event.delay:g}")
    if isinstance(event, GrowSent):
        how = "lateral" if event.lateral else "vertical"
        return f"{at}grow-sent   {event.cluster!r} -> {event.parent!r} ({how})"
    return f"{at}shrink-sent {event.cluster!r} -> {event.parent!r}"


def main() -> None:
    scenario = build(ScenarioConfig(r=3, max_level=2))
    system, hierarchy = scenario.system, scenario.hierarchy
    moves = [(4, 4), (5, 5)]
    evader = system.make_evader(FixedPath(moves), dwell=1e12, start=moves[0])
    system.run_to_quiescence()

    print("=== one evader move, event by event ===")
    move_start = system.sim.now
    checks = 0
    want = atomic_move_seq(hierarchy, moves).pointer_map()
    with obs.observed() as collector:
        evader.step()
        while system.sim.next_event_time() is not None:
            system.sim.run(max_events=1)
            snapshot = capture_snapshot(system)
            assert look_ahead(snapshot, hierarchy).pointer_map() == want
            checks += 1
    print(f"lookAhead == atomicMoveSeq held at every one of the "
          f"{checks} events of the move.  (Theorem 4.8)\n")

    print(f"update cascade of the move (t0 = {move_start}):")
    for event in collector.events:
        if isinstance(event, (MessageDispatched, GrowSent, ShrinkSent)):
            print(describe(event, move_start))

    problems = check_consistent(capture_snapshot(system), hierarchy, evader.region)
    print(f"\nsettled state consistent: {not problems} "
          f"({len(problems)} violations)")


if __name__ == "__main__":
    main()
