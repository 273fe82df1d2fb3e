"""The instrumented default-scenario probe behind ``repro report --obs``.

Runs one fully observed E1-style workload — build the default world,
walk the evader, issue a find — with typed events and the online
conformance sampler enabled, and returns the ``obs/2`` payload.
The default scenario is fault-free and respects the atomic-move timing
bound, so the sampler must report **zero** Lemma 4.1/4.2 / Theorem 4.8
violations; ``benchmarks/check_obs_report.py`` gates on exactly that.
"""

from __future__ import annotations

import random
from typing import Any, Dict

from . import disable, enable
from .conformance import ConformanceSampler
from .export import obs_payload


def run_obs_probe(stride: int = 64) -> Dict[str, Any]:
    """One observed run — a 30-move walk and one find on r=2, MAX=3,
    seed 11, sampled every ``stride`` events in strict mode; returns the
    serialized ``obs/2`` payload."""
    r, max_level, n_moves, seed = 2, 3, 30, 11
    from ..mobility.models import RandomNeighborWalk
    from ..scenario import ScenarioConfig, build

    collector = enable()
    try:
        scenario = build(ScenarioConfig(r=r, max_level=max_level, seed=seed))
        system = scenario.system
        rng = random.Random(seed)
        regions = scenario.hierarchy.tiling.regions()
        start = regions[len(regions) // 2]
        evader = system.make_evader(
            RandomNeighborWalk(start=start), dwell=1e12, start=start, rng=rng
        )
        system.run_to_quiescence()
        sampler = ConformanceSampler(
            system, stride=stride, strict=True, collector=collector
        ).attach()
        for _ in range(n_moves):
            evader.step()
            system.run_to_quiescence()
        find_id = system.issue_find(regions[0])
        system.run_to_quiescence()
        sampler.detach()
        record = system.finds.records[find_id]
        return obs_payload(
            collector,
            sampler,
            extra={
                "scenario": {
                    "r": r,
                    "max_level": max_level,
                    "n_moves": n_moves,
                    "seed": seed,
                    "system": "vinestalk",
                },
                "results": {
                    "events_fired": system.sim.events_fired,
                    "move_work": scenario.accountant.move_work,
                    "find_completed": record.completed,
                    "find_work": record.work,
                },
            },
        )
    finally:
        disable()
