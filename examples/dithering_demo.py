#!/usr/bin/env python3
"""The dithering problem (§IV-B), demonstrated.

An evader ping-pongs across two adjacent regions that sit in different
clusters at *every* hierarchy level.  A naive hierarchical tracker
rebuilds the path to the top on every move; VINESTALK's lateral links
make the steady-state cost constant.

Run:  python examples/dithering_demo.py
"""

from repro import grid_hierarchy
from repro.api import ScenarioConfig, build
from repro.analysis import render_table
from repro.mobility import BoundaryOscillator, worst_boundary_pair

OSCILLATIONS = 16


def run(system_key, hierarchy):
    scenario = build(ScenarioConfig(
        system=system_key, hierarchy=hierarchy, delta=1.0, e=0.5
    ))
    system, accountant = scenario.parts()
    a, b = worst_boundary_pair(hierarchy)
    evader = system.make_evader(BoundaryOscillator(a, b), dwell=1e9, start=a)
    system.run_to_quiescence()
    per_move = []
    for _ in range(OSCILLATIONS):
        before = accountant.epoch()
        evader.step()
        system.run_to_quiescence()
        per_move.append(accountant.delta_since(before).move_work)
    return (a, b), per_move


def main() -> None:
    hierarchy = grid_hierarchy(r=2, max_level=4)  # 16x16 world
    (a, b), with_laterals = run("vinestalk", hierarchy)
    _pair, without = run("no-lateral", hierarchy)
    print(f"oscillating between {a} and {b} — adjacent regions split at "
          f"every level below MAX={hierarchy.max_level}\n")
    rows = [
        (k + 1, w, wo)
        for k, (w, wo) in enumerate(zip(with_laterals, without))
    ]
    print(render_table(
        ["move", "VINESTALK work", "no-lateral work"],
        rows,
        title="per-move tracking work",
    ))
    steady_with = sum(with_laterals[2:]) / len(with_laterals[2:])
    steady_without = sum(without[2:]) / len(without[2:])
    print(f"\nsteady state: {steady_with:.1f} vs {steady_without:.1f} "
          f"per move — lateral links win {steady_without / steady_with:.1f}x")


if __name__ == "__main__":
    main()
