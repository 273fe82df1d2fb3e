"""The multi-pursuit game (§VII extension).

Several pursuers must overtake several evaders, tracked on lanes
``1..n`` of one :class:`~repro.core.vinestalk.VineStalk` (DESIGN.md §9).
Each decision round a pursuer asks VINESTALK where its assigned evader
is (a find on that evader's lane, paying real find work) and takes up to
``pursuer_speed`` greedy steps toward the answer.  Targets come either
from the command center's overlap-free assignment or from the naive
"everyone chases the nearest" strategy — the benchmark compares the two.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..geometry.regions import RegionId
from ..hierarchy.hierarchy import ClusterHierarchy
from ..mobility.evader import Evader
from ..mobility.models import RandomNeighborWalk
from ..scenario import ScenarioConfig, build
from .command_center import CommandCenter


@dataclass
class Pursuer:
    """One chasing agent."""

    pursuer_id: str
    region: RegionId
    target: Optional[str] = None
    distance_walked: int = 0

    def step_toward(self, tiling, destination: RegionId, speed: int) -> None:
        for _ in range(speed):
            if self.region == destination:
                return
            self.region = min(
                tiling.neighbors(self.region),
                key=lambda nb: (tiling.distance(nb, destination), nb),
            )
            self.distance_walked += 1


@dataclass
class GameResult:
    """Outcome of one pursuit game."""

    rounds: int
    caught: List[str]
    all_caught: bool
    find_work: float
    report_work: float
    pursuer_distance: int
    catch_rounds: Dict[str, int] = field(default_factory=dict)


class PursuitGame:
    """Drives pursuers against the evaders of one VINESTALK system.

    Args:
        hierarchy: The world.
        n_evaders / n_pursuers: Team sizes.
        coordinated: Use the command center's overlap-free assignment
            (True) or naive nearest-chasing (False).
        evader_dwell: Evader move period (they flee during the game).
        pursuer_speed: Greedy steps per pursuer per round.
        seed: Determinism.
    """

    def __init__(
        self,
        hierarchy: ClusterHierarchy,
        n_evaders: int = 2,
        n_pursuers: int = 2,
        coordinated: bool = True,
        evader_dwell: float = 200.0,
        pursuer_speed: int = 2,
        seed: int = 0,
        evader_starts: Optional[List[RegionId]] = None,
        pursuer_starts: Optional[List[RegionId]] = None,
    ) -> None:
        self.hierarchy = hierarchy
        self.tiling = hierarchy.tiling
        self.coordinated = coordinated
        self.pursuer_speed = pursuer_speed
        self.rng = random.Random(seed)
        self.system, self.accountant = build(
            ScenarioConfig(hierarchy=hierarchy)
        ).parts()
        #: The evaders still at large, by id; ``evader-k`` is on lane k+1.
        self.evaders: Dict[str, Evader] = {}
        regions = self.tiling.regions()
        center_region = regions[len(regions) // 2]
        self.center = CommandCenter(self.system.sim, self.tiling, center_region)

        for index in range(n_evaders):
            evader_id = f"evader-{index}"
            if evader_starts is not None:
                start = evader_starts[index % len(evader_starts)]
            else:
                start = self.rng.choice(regions)
            self.evaders[evader_id] = self.system.make_evader(
                RandomNeighborWalk(start=start),
                evader_dwell,
                rng=random.Random(seed * 101 + index),
                start=start,
                object_id=index + 1,
            )
        self.system.run_to_quiescence()
        for evader in self.evaders.values():
            evader.start()

        self.pursuers: Dict[str, Pursuer] = {}
        for index in range(n_pursuers):
            pursuer_id = f"pursuer-{index}"
            if pursuer_starts is not None:
                start = pursuer_starts[index % len(pursuer_starts)]
            else:
                start = self.rng.choice(regions)
            self.pursuers[pursuer_id] = Pursuer(pursuer_id, region=start)

    # ------------------------------------------------------------------
    def _refresh_sightings(self) -> None:
        """Tracking VSAs report each evader's region to the center."""
        for evader_id in sorted(self.evaders):
            self.center.report(evader_id, self.evaders[evader_id].region)

    def _assign_targets(self) -> Dict[str, Optional[str]]:
        positions = {p.pursuer_id: p.region for p in self.pursuers.values()}
        if self.coordinated:
            return self.center.assign(positions)
        sightings = {
            s.evader_id: s.region for s in self.center.sightings.values()
        }
        return CommandCenter.naive_assignment(self.tiling, positions, sightings)

    def _locate(self, evader_id: str, origin: RegionId) -> Optional[RegionId]:
        """A real VINESTALK find for the assigned evader."""
        sim = self.system.sim
        find_id = self.system.issue_find(
            origin, object_id=self.evaders[evader_id].object_id
        )
        deadline = sim.now + 500.0
        record = self.system.finds.records[find_id]
        while not record.completed and sim.now < deadline:
            if sim.run_until(sim.now + 10.0) == 0 and sim.next_event_time() is None:
                break
        return record.found_region if record.completed else None

    # ------------------------------------------------------------------
    def play(self, max_rounds: int = 60, round_period: float = 50.0) -> GameResult:
        caught: List[str] = []
        catch_rounds: Dict[str, int] = {}
        for round_number in range(1, max_rounds + 1):
            if not self.evaders:
                break
            self._refresh_sightings()
            assignment = self._assign_targets()
            for pursuer in sorted(self.pursuers.values(), key=lambda p: p.pursuer_id):
                target = assignment.get(pursuer.pursuer_id)
                if target is None or target not in self.evaders:
                    continue
                pursuer.target = target
                sighting = self._locate(target, pursuer.region)
                if sighting is None:
                    sighting = self.center.last_sighting(target).region
                pursuer.step_toward(self.tiling, sighting, self.pursuer_speed)
                if pursuer.region == self.evaders[target].region:
                    caught.append(target)
                    catch_rounds[target] = round_number
                    self.center.forget(target)
                    self.evaders.pop(target).stop()
            self.system.run(round_period)
        return GameResult(
            rounds=round_number,
            caught=caught,
            all_caught=not self.evaders,
            find_work=self.accountant.find_work,
            report_work=self.center.report_work,
            pursuer_distance=sum(p.distance_walked for p in self.pursuers.values()),
            catch_rounds=catch_rounds,
        )
