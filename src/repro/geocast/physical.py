"""Physically-routed C-gcast (§II-C.3 implementation note).

The abstract :class:`~repro.geocast.cgcast.CGcast` delivers at the
paper's exact times by fiat.  The paper's actual construction is: carry
each message over the DFS-based geocast of [10] (hop-by-hop V-bcasts),
then *delay processing at the receiver* until the §II-C.3 amount has
transpired, so the observable delays are exactly the table's.

:class:`PhysicalCGcast` implements that: every VSA→VSA message is routed
hop-by-hop between the cluster heads through
:class:`~repro.geocast.routing.GeocastRouter` — a failed region on the
route genuinely drops the message — and delivery is padded to the exact
rule time.  Region up/down state is synchronised from the VSA hosts by
the emulated system.
"""

from __future__ import annotations

from typing import Any, Callable

from ..geometry.regions import RegionId
from ..hierarchy.cluster import ClusterId
from ..hierarchy.hierarchy import ClusterHierarchy
from ..sim.engine import Simulator
from .cgcast import CGcast
from .routing import GeocastRouter


class PhysicalCGcast(CGcast):
    """C-gcast whose messages traverse the region graph hop by hop."""

    def __init__(
        self,
        sim: Simulator,
        hierarchy: ClusterHierarchy,
        delta: float = 1.0,
        e: float = 0.0,
    ) -> None:
        super().__init__(sim, hierarchy, delta=delta, e=e)
        self.router = GeocastRouter(sim, hierarchy.tiling, delta=delta)
        # A copy dropped at a down region is no longer in flight.
        self.router.on_drop = lambda message: self._in_transit.pop(message[0], None)
        for region in hierarchy.tiling.regions():
            self.router.register(region, self._make_inbox(region))

    def _make_inbox(self, region: RegionId) -> Callable[[Any, RegionId], None]:
        def inbox(message: Any, _src: RegionId) -> None:
            deliver_entry, deliver_at = message
            remaining = max(0.0, deliver_at - self.sim.now)
            # Pad to the exact §II-C.3 time, then deliver.
            self.sim.call_after(remaining, deliver_entry, tag="cgcast-pad")

        return inbox

    def set_region_down(self, region: RegionId, down: bool = True) -> None:
        """Mark a region's VSA as failed for routing purposes."""
        self.router.set_region_down(region, down)

    # ------------------------------------------------------------------
    # Physically routed transport
    # ------------------------------------------------------------------
    def _transport(
        self, src: Any, dest: Any, when: float, deliver: Callable[[], None]
    ) -> None:
        """Route VSA→VSA copies between the cluster heads, hop by hop.

        Client legs (rules (d)/(e)) are one local broadcast and stay
        single-hop.
        """
        if isinstance(src, ClusterId) and isinstance(dest, ClusterId):
            head = self.hierarchy.head
            self.router.send(head(src), head(dest), (deliver, when))
        else:
            super()._transport(src, dest, when, deliver)
