#!/usr/bin/env python3
"""Coordinated multi-pursuit over VINESTALK (§VII extension).

Three pursuers start huddled in a corner of a 16x16 world; three evaders
flee in different quadrants.  Tracking VSAs report sightings to a
command-center VSA, which assigns each pursuer a *distinct* target
(greedy minimum-distance matching).  The same game replayed with naive
"chase whatever is nearest" shows why the coordination matters: the pack
piles onto one evader while the others run free.

Run:  python examples/multi_pursuit.py
"""

from repro import grid_hierarchy
from repro.analysis import render_table
from repro.coordination import PursuitGame

KWARGS = dict(
    n_evaders=3,
    n_pursuers=3,
    seed=7,
    evader_dwell=50.0,
    pursuer_speed=2,
    evader_starts=[(2, 13), (13, 13), (13, 2)],
    pursuer_starts=[(0, 0), (1, 0), (0, 1)],
)


def main() -> None:
    rows = []
    for coordinated in (True, False):
        hierarchy = grid_hierarchy(r=2, max_level=4)
        game = PursuitGame(hierarchy, coordinated=coordinated, **KWARGS)
        result = game.play(max_rounds=80, round_period=50.0)
        strategy = "command center" if coordinated else "naive nearest"
        rows.append((
            strategy,
            result.rounds,
            ", ".join(f"{k}@r{v}" for k, v in sorted(result.catch_rounds.items())),
            result.find_work,
            result.pursuer_distance,
        ))
    print(render_table(
        ["strategy", "rounds", "catches (round)", "find work", "distance"],
        rows,
        title="3 pursuers (clustered) vs 3 evaders (spread), 16x16 world",
    ))
    print("\nThe command center eliminates overlap: each pursuer chases a"
          "\ndistinct evader, so the last catch comes sooner and the total"
          "\nfind work (every lookup is a real VINESTALK find) is lower.")


if __name__ == "__main__":
    main()
