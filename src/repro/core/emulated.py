"""VINESTALK over the *emulated* VSA layer (§II-C.2 regime, experiment E9).

In the abstract regime every VSA is alive; here VSAs live and die with
the physical node population of their regions: when a region empties its
VSA fails (the hosted Trackers stop and lose state), and after
``t_restart`` of continuous re-occupancy it restarts from initial state.

The tracking theorems assume always-alive VSAs, so this mode is for
studying the layer semantics and the tracking structure's behaviour
under VSA churn: how long the structure stays broken, and how the next
evader moves rebuild it.
"""

from __future__ import annotations

from typing import List, Optional

from ..geometry.regions import RegionId
from ..hierarchy.hierarchy import ClusterHierarchy
from ..physical.deployment import per_region_density
from ..physical.node import PhysicalNode
from ..sim.engine import Simulator
from .timers import TimerSchedule
from .vinestalk import VineStalk


class EmulatedVineStalk(VineStalk):
    """VINESTALK with VSAs emulated by a physical node population.

    Args:
        hierarchy: The cluster hierarchy.
        nodes_per_region: Initial population density.
        t_restart: Continuous-occupancy time to restart a failed VSA.
        delta, e, schedule, sim: As for :class:`VineStalk`.
    """

    def __init__(
        self,
        hierarchy: ClusterHierarchy,
        nodes_per_region: int = 2,
        t_restart: float = 5.0,
        delta: float = 1.0,
        e: float = 0.5,
        schedule: Optional[TimerSchedule] = None,
        sim: Optional[Simulator] = None,
        physical_routing: bool = False,
    ) -> None:
        if physical_routing:
            from ..geocast.physical import PhysicalCGcast

            self.cgcast_cls = PhysicalCGcast
        super().__init__(hierarchy, delta=delta, e=e, schedule=schedule, sim=sim)
        self.physical_routing = physical_routing
        if physical_routing:
            # Failed VSAs stop forwarding geocast hops through their region.
            for host in self.network.hosts.values():
                host.observe(self._host_lifecycle)
        self.nodes: List[PhysicalNode] = per_region_density(
            hierarchy.tiling, nodes_per_region
        )
        self.emulation = self.network.enable_emulation(self.nodes, t_restart)

    def _host_lifecycle(self, host, event: str) -> None:
        self.cgcast.set_region_down(host.region, down=(event == "fail"))

    # ------------------------------------------------------------------
    # Region-targeted fault injection
    # ------------------------------------------------------------------
    def kill_region(self, region: RegionId) -> int:
        """Fail every node in ``region``; its VSA fails with them.

        Returns the number of nodes failed.
        """
        victims = self.emulation.population(region)
        for node in victims:
            node.fail()
        return len(victims)

    def revive_region(self, region: RegionId) -> int:
        """Restart this region's failed nodes (VSA restarts after t_restart)."""
        revived = 0
        for node in self.nodes:
            if not node.alive and node.region == region:
                node.restart()
                revived += 1
        return revived

    def failed_regions(self) -> List[RegionId]:
        return sorted(
            region for region, host in self.network.hosts.built.items() if host.failed
        )

    def path_is_intact(self) -> bool:
        """Does a full tracking path to the evader currently exist?

        A path cluster whose Tracker is failed does not count: the
        pointers only live in the (dead) emulation's memory.
        """
        from .path import check_tracking_path

        if self.evader is None or self.evader.region is None:
            return False
        path, problems = check_tracking_path(
            self.snapshot(), self.hierarchy, self.evader.region
        )
        if problems:
            return False
        return all(not self.trackers[clust].failed for clust in path or [])
