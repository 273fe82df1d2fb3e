"""GPS oracle (§II-C.1, §III).

The GPS service tells every physical node its region: a
``GPSupdate(u)_p`` is issued when node ``p`` enters the system or
changes region.  The §III augmentation — a ``move`` input to the
clients of a region exactly when the evader enters it, and a ``left``
when it leaves — is delivered by the tracking system itself
(``VineStalk._evader_event``), not here.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from ..geometry.regions import RegionId
from ..sim.engine import Simulator
from .node import PhysicalNode

# GPSupdate sink: (node, region).
GpsUpdateSink = Callable[[PhysicalNode, RegionId], None]


class GpsOracle:
    """Delivers GPSupdate inputs to the clients riding tracked nodes."""

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self._update_sinks: List[GpsUpdateSink] = []
        #: Optional staleness hook (repro.faults): ``("GPSupdate", region)
        #: -> extra delay``.  When None or 0.0, delivery stays synchronous.
        self.fault_delay: Optional[Callable[[str, RegionId], float]] = None

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def on_update(self, sink: GpsUpdateSink) -> None:
        self._update_sinks.append(sink)

    def track_node(self, node: PhysicalNode) -> None:
        """Register a node; issues its initial GPSupdate immediately."""
        node.observe(self._node_event)
        self._push_update(node)

    # ------------------------------------------------------------------
    # Event plumbing
    # ------------------------------------------------------------------
    def _node_event(self, node: PhysicalNode, event: str, region: RegionId) -> None:
        if event == "enter" or event == "restart":
            self._push_update(node)

    def _push_update(self, node: PhysicalNode) -> None:
        if not node.alive:
            return
        if self.fault_delay is not None:
            extra = self.fault_delay("GPSupdate", node.region)
            if extra > 0.0:
                region = node.region

                def late() -> None:
                    if node.alive and node.region == region:
                        for sink in self._update_sinks:
                            sink(node, region)

                self.sim.call_after(extra, late, tag="gps-stale")
                return
        for sink in self._update_sinks:
            sink(node, node.region)
