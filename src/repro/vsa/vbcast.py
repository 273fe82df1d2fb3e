"""V-bcast: reliable local broadcast (§II-C.3 preliminaries).

The VSA layer of [7],[6] provides V-bcast — broadcast between clients
and VSAs in the same or neighboring regions with message delay ``δ``.
We implement it directly over the region graph: a broadcast from region
``u`` reaches every endpoint registered in ``u`` or a neighbor after
``δ`` (plus the emulation output lag ``e`` when the sender is a VSA).

No system constructs a :class:`VBcast`: client ↔ VSA traffic is C-gcast
rule (e) (:mod:`repro.geocast.cgcast`).  The class is the measured
single-hop layer of ``benchmarks/perf/micro.py`` (ROADMAP items 2, 5).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Tuple

from ..geometry.regions import RegionId
from ..geometry.tiling import Tiling
from ..sim.engine import Simulator

# Endpoint callback: (message, source_region).
Endpoint = Callable[[Any, RegionId], None]


class VBcast:
    """Reliable single-hop broadcast between clients and VSAs."""

    def __init__(self, sim: Simulator, tiling: Tiling, delta: float, e: float = 0.0) -> None:
        if delta < 0 or e < 0:
            raise ValueError("delta and e must be non-negative")
        self.sim = sim
        self.tiling = tiling
        self.delta = delta
        self.e = e
        self._endpoints: Dict[RegionId, List[Tuple[str, Endpoint]]] = {}
        self.broadcasts = 0
        self.deliveries = 0

    def register(self, region: RegionId, name: str, endpoint: Endpoint) -> None:
        """Attach a named endpoint living in ``region``."""
        self._endpoints.setdefault(region, []).append((name, endpoint))

    def bcast(self, source_region: RegionId, message: Any, from_vsa: bool = False) -> None:
        """Broadcast to all endpoints in the source region and its neighbors.

        Args:
            source_region: Originating region.
            message: Payload.
            from_vsa: VSA-originated messages incur the emulation output
                lag ``e`` in addition to ``δ``.
        """
        self.broadcasts += 1
        delay = self.delta + (self.e if from_vsa else 0.0)
        targets = [source_region, *self.tiling.neighbors(source_region)]

        def deliver() -> None:
            for region in targets:
                for _name, endpoint in list(self._endpoints.get(region, [])):
                    self.deliveries += 1
                    endpoint(message, source_region)

        self.sim.call_after(delay, deliver, tag="vbcast")
