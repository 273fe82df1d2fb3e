#!/usr/bin/env python3
"""Pursuer–evader game over VINESTALK (the §VII motion-coordination use).

A pursuer repeatedly asks its local client *where is the evader?* (a
find operation), then greedily steps toward the reported region while
the evader keeps fleeing.  VINESTALK's O(d) finds mean the pursuer pays
less and less per query as it closes in.

Run:  python examples/pursuit.py
"""

import random

from repro.api import ScenarioConfig, build
from repro.mobility import RandomNeighborWalk, concurrent_dwell


def step_toward(tiling, frm, to):
    """Greedy neighbor step from ``frm`` toward ``to``."""
    if frm == to:
        return frm
    return min(
        tiling.neighbors(frm),
        key=lambda nb: (tiling.distance(nb, to), nb),
    )


def main() -> None:
    scenario = build(ScenarioConfig(r=3, max_level=2, delta=1.0, e=0.5, seed=13))
    system, hierarchy = scenario.system, scenario.hierarchy
    tiling = hierarchy.tiling

    # Evader flees under the §VI speed restriction (updates stay atomic).
    dwell = concurrent_dwell(system.schedule, hierarchy.params,
                             system.delta, system.e)
    evader = system.make_evader(
        RandomNeighborWalk(start=(8, 8)), dwell=dwell, start=(8, 8),
        rng=random.Random(13),
    )
    system.run_to_quiescence()
    evader.start()

    pursuer = (0, 0)
    print(f"pursuer at {pursuer}, evader at {evader.region}, "
          f"evader dwell {dwell:.0f}")
    for round_number in range(1, 40):
        find_id = system.issue_find(pursuer)
        # Wait for the answer while the world keeps running.
        while not system.finds.records[find_id].completed:
            if system.sim.run_until(system.sim.now + 5.0) == 0 and (
                system.sim.next_event_time() is None
            ):
                break
        record = system.finds.records[find_id]
        if not record.completed:
            print(f"round {round_number}: find unanswered, retrying")
            continue
        sighting = record.found_region
        # The pursuer moves up to 3 regions toward the sighting.
        for _ in range(3):
            pursuer = step_toward(tiling, pursuer, sighting)
        gap = tiling.distance(pursuer, evader.region)
        print(f"round {round_number:2d}: sighting {sighting}, pursuer -> "
              f"{pursuer}, find work {record.work:4.0f}, gap {gap}")
        if gap == 0:
            print(f"caught the evader at {pursuer} after "
                  f"{round_number} rounds!")
            break
    else:
        print("pursuit ended without a catch (try more rounds)")
    evader.stop()


if __name__ == "__main__":
    main()
