#!/usr/bin/env python3
"""VINESTALK on an irregular (non-grid) world.

The paper generalizes STALK's cluster definitions beyond grids; this
demo builds a hexagonal map, constructs a hierarchy for it with the
agglomerative builder (measured geometry parameters, no closed forms),
and runs the unmodified tracking stack on it: moves match the atomic
reference model and finds work from the map's rim.

Run:  python examples/irregular_map.py
"""

import random

from repro.api import ScenarioConfig, build
from repro.analysis import render_table
from repro.core import uniform_schedule
from repro.geometry import HexTiling
from repro.hierarchy import build_agglomerative_hierarchy
from repro.mobility import RandomNeighborWalk


def main() -> None:
    tiling = HexTiling(3)
    hierarchy = build_agglomerative_hierarchy(tiling, ratio=3)
    print(f"hex world: {tiling.size()} regions, diameter {tiling.diameter()}")
    counts = [len(hierarchy.clusters_at_level(l)) for l in hierarchy.levels()]
    print(f"built hierarchy: MAX={hierarchy.max_level}, clusters per level {counts}")
    print(f"measured geometry: n={hierarchy.params.n_values} "
          f"ω={hierarchy.params.omega_values}")

    schedule = uniform_schedule(hierarchy.params, delta=1.0, e=0.5)
    scenario = build(ScenarioConfig(
        hierarchy=hierarchy, schedule=schedule, delta=1.0, e=0.5, seed=11
    ))
    system, accountant = scenario.parts()

    evader = system.make_evader(
        RandomNeighborWalk(start=(0, 0)), dwell=1e9, start=(0, 0),
        rng=random.Random(11),
    )
    system.run_to_quiescence()
    for _ in range(15):
        evader.step()
        system.run_to_quiescence()
    print(f"\nevader walked 15 hexes, now at {evader.region}; "
          f"move work {accountant.move_work:.0f}")

    rows = []
    for origin in [(3, 0), (-3, 0), (0, 3), (0, -3), (3, -3), (-3, 3)]:
        find_id = system.issue_find(origin)
        system.run_to_quiescence()
        record = system.finds.records[find_id]
        rows.append((
            str(origin),
            tiling.distance(origin, evader.region),
            record.work,
            str(record.found_region),
        ))
    print()
    print(render_table(
        ["origin", "distance", "find work", "found at"],
        rows,
        title="finds from the rim of the hex map",
    ))


if __name__ == "__main__":
    main()
