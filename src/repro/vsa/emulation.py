"""Emulation of VSAs by the physical nodes in their regions (§II-C.2).

The full replication protocol of [7],[6] is below VINESTALK's
abstraction; what the tracking layer depends on is the emulation's
externally visible behaviour, which we implement exactly:

* a VSA's state is carried by the alive physical nodes in its region —
  the minimum-id alive node acts as leader;
* if the region empties (all nodes fail or leave), the VSA **fails**:
  its subautomata stop and their state is lost;
* if a failed VSA's region then stays continuously populated for
  ``t_restart``, the VSA **restarts from its initial state**;
* VSA outputs lag real time by up to ``e`` (charged in the C-gcast
  delay schedule).

:class:`VsaEmulation` watches a node population and drives the
fail/restart lifecycle of every region's :class:`~repro.vsa.vsa.VsaHost`.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..geometry.regions import RegionId
from ..physical.node import PhysicalNode
from ..sim.engine import Simulator
from .vsa import VsaHost


class VsaEmulation:
    """Drives VSA fail/restart from physical node population.

    Args:
        sim: The simulator.
        hosts: Mapping of region id to its :class:`VsaHost`.
        t_restart: Continuous-occupancy time needed to restart a failed VSA.
    """

    def __init__(
        self,
        sim: Simulator,
        hosts: Dict[RegionId, VsaHost],
        t_restart: float,
    ) -> None:
        if t_restart < 0:
            raise ValueError("t_restart must be non-negative")
        self.sim = sim
        self.hosts = hosts
        self.t_restart = t_restart
        self._nodes: Dict[int, PhysicalNode] = {}
        # Region -> time since which it has been continuously populated
        # (None while empty).
        self._populated_since: Dict[RegionId, Optional[float]] = {
            region: None for region in hosts
        }
        # Regions held down by fault injection (repro.faults): the VSA
        # stays failed regardless of population until the blackout lifts.
        self._blacked_out: set = set()

    # ------------------------------------------------------------------
    # Population management
    # ------------------------------------------------------------------
    def add_node(self, node: PhysicalNode) -> None:
        """Register a node; it immediately counts toward its region."""
        self._nodes[node.node_id] = node
        node.observe(self._node_event)
        if node.alive:
            self._region_maybe_populated(node.region)

    def population(self, region: RegionId) -> List[PhysicalNode]:
        """Alive nodes currently in ``region`` (sorted by id)."""
        return sorted(
            (n for n in self._nodes.values() if n.alive and n.region == region),
            key=lambda n: n.node_id,
        )

    def leader(self, region: RegionId) -> Optional[PhysicalNode]:
        """The emulation leader: minimum-id alive node in the region."""
        nodes = self.population(region)
        return nodes[0] if nodes else None

    def initialize(self) -> None:
        """Bring up VSAs for initially populated regions (time 0 bootstrap)."""
        for region, host in self.hosts.items():
            if self.population(region):
                self._populated_since[region] = self.sim.now
            else:
                self._populated_since[region] = None
                host.fail()

    # ------------------------------------------------------------------
    # Event plumbing
    # ------------------------------------------------------------------
    def _node_event(self, node: PhysicalNode, event: str, region: RegionId) -> None:
        if event in ("leave", "fail"):
            self._region_maybe_emptied(region)
        if event in ("enter", "restart"):
            self._region_maybe_populated(node.region)

    def _region_maybe_emptied(self, region: RegionId) -> None:
        if region not in self.hosts:
            return
        if self.population(region):
            return
        self._populated_since[region] = None
        host = self.hosts[region]
        if not host.failed:
            host.fail()

    def _region_maybe_populated(self, region: RegionId) -> None:
        if region not in self.hosts:
            return
        if not self.population(region):
            return
        if self._populated_since[region] is None:
            since = self.sim.now
            self._populated_since[region] = since
            host = self.hosts[region]
            if host.failed:
                self.sim.call_after(
                    self.t_restart,
                    lambda: self._try_restart(region, since),
                    tag=f"vsa-restart:{region}",
                )

    def _try_restart(self, region: RegionId, since: float) -> None:
        """Restart iff the region stayed continuously populated since ``since``."""
        if region in self._blacked_out:
            return  # fault injection holds the VSA down
        if self._populated_since.get(region) != since:
            return  # emptied (and possibly re-populated) in the meantime
        host = self.hosts[region]
        if host.failed:
            host.restart()

    # ------------------------------------------------------------------
    # Fault injection (repro.faults)
    # ------------------------------------------------------------------
    def blackout(self, region: RegionId) -> None:
        """Force-fail ``region``'s VSA regardless of its population.

        Unlike the §II-C.2 empty-region failure, the node population is
        untouched — the virtual machine itself dies — and the VSA stays
        down until :meth:`lift_blackout`, suppressing the continuous-
        occupancy restart in the meantime.
        """
        if region not in self.hosts:
            raise KeyError(f"unknown region {region!r}")
        self._blacked_out.add(region)
        host = self.hosts[region]
        if not host.failed:
            host.fail()

    def lift_blackout(self, region: RegionId) -> None:
        """End a blackout; restart follows the normal occupancy rule."""
        if region not in self._blacked_out:
            return
        self._blacked_out.discard(region)
        host = self.hosts[region]
        if host.failed and self.population(region):
            # The region is populated now; a fresh continuous-occupancy
            # window starts at the lift.
            since = self.sim.now
            self._populated_since[region] = since
            self.sim.call_after(
                self.t_restart,
                lambda: self._try_restart(region, since),
                tag=f"vsa-restart:{region}",
            )
