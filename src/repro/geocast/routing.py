"""Region-graph geocast routing (the [10] substrate under C-gcast).

The paper's C-gcast is built over a self-stabilizing DFS-based geocast
that delivers messages between non-neighboring VSAs with bounded delay.
We implement the equivalent routing substrate: hop-by-hop forwarding
along shortest region-graph paths, each hop one V-bcast (delay ``δ``).
The abstract :class:`~repro.geocast.cgcast.CGcast` charges the *exact*
end-to-end delays of §II-C.3; this router realises those deliveries
physically for the emulated layer and for layer benchmarks.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from ..geometry.regions import RegionId
from ..geometry.tiling import Tiling
from ..sim.engine import Simulator
from ..topo import topology_cache


class GeocastRouter:
    """Hop-by-hop unicast over the region graph.

    Args:
        sim: The simulator.
        tiling: Region graph.
        delta: Per-hop delay.

    Region endpoints register a receive callback; :meth:`send` forwards a
    message along a shortest path, invoking the destination callback
    after ``hops × δ``.  Hops are materialised as simulator events so a
    region failing mid-route genuinely interrupts delivery.

    Routes come from the tiling's shared precomputed
    :class:`~repro.topo.routes.RouteTable` (one BFS parent tree per
    source, layered by the frozen down-set) instead of per-call BFS.
    Down-set changes bump :attr:`down_epoch` and switch the table layer;
    shrinking back to a previously seen down-set (e.g. a blackout
    lifting) reuses the earlier layer with no rebuild.
    """

    def __init__(self, sim: Simulator, tiling: Tiling, delta: float) -> None:
        if delta < 0:
            raise ValueError("delta must be non-negative")
        self.sim = sim
        self.tiling = tiling
        self.delta = delta
        self._receivers: Dict[RegionId, Callable[[Any, RegionId], None]] = {}
        self._down: set = set()
        self._down_key: frozenset = frozenset()
        self.down_epoch = 0
        self.hops_total = 0
        self.delivered = 0
        self.dropped = 0
        #: Called with each dropped message, when set.
        self.on_drop: Optional[Callable[[Any], None]] = None

    def register(self, region: RegionId, receiver: Callable[[Any, RegionId], None]) -> None:
        self._receivers[region] = receiver

    def set_region_down(self, region: RegionId, down: bool = True) -> None:
        """Mark a region as unable to forward (its VSA is failed).

        Any change to the down-set bumps the epoch: the underlying
        geocast is self-stabilizing, so fresh sends must not keep
        following a shortest path through a failed region (nor keep
        detouring around a recovered one).  The precomputed route table
        needs no invalidation — its layers are keyed by the frozen
        down-set, so the epoch bump just selects a different (possibly
        already computed) layer.
        """
        changed = (region not in self._down) if down else (region in self._down)
        if down:
            self._down.add(region)
        else:
            self._down.discard(region)
        if changed:
            self.down_epoch += 1
            self._down_key = frozenset(self._down)

    def route(self, src: RegionId, dest: RegionId) -> List[RegionId]:
        """Shortest live path from ``src`` to ``dest`` (inclusive of both).

        Failed regions are routed around when a detour exists.  When the
        down-set disconnects the endpoints (or an endpoint itself is
        down), the down-agnostic shortest path is returned instead and
        the message is dropped at the failed hop — matching the physical
        behavior of forwarding into a dead region.
        """
        return topology_cache().routes(self.tiling).path(src, dest, self._down_key)

    def send(self, src: RegionId, dest: RegionId, message: Any) -> None:
        """Forward ``message`` from ``src`` to ``dest`` hop by hop."""
        path = self.route(src, dest)
        self._hop(path, 0, message, src)

    def _hop(self, path: List[RegionId], index: int, message: Any, src: RegionId) -> None:
        region = path[index]
        last = index == len(path) - 1
        receiver = self._receivers.get(region) if last else None
        if region in self._down or (last and receiver is None):
            self.dropped += 1
            if self.on_drop is not None:
                self.on_drop(message)
            return
        if last:
            self.delivered += 1
            receiver(message, src)
            return
        self.hops_total += 1
        self.sim.call_after(
            self.delta,
            lambda: self._hop(path, index + 1, message, src),
            tag="geocast-hop",
        )
