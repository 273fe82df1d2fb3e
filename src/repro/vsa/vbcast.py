"""V-bcast: reliable local broadcast (§II-C.3 preliminaries).

The VSA layer of [7],[6] provides V-bcast — broadcast between clients
and VSAs in the same or neighboring regions with message delay ``δ``.
C-gcast is layered over it for non-neighboring VSAs.  We implement
V-bcast directly over the region graph: a broadcast from region ``u``
reaches every endpoint registered in ``u`` or a neighbor after ``δ``
(plus the emulation output lag ``e`` when the sender is a VSA).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..geometry.regions import RegionId
from ..geometry.tiling import Tiling
from ..sim.engine import Simulator

# Endpoint callback: (message, source_region).
Endpoint = Callable[[Any, RegionId], None]

# Fault interposition hook (see repro.faults): called once per broadcast
# with (source_region, message, delay, from_vsa); returns the per-copy
# delivery delays (empty list = broadcast dropped), or None to deliver
# exactly as normal.
FaultFilter = Callable[[RegionId, Any, float, bool], Optional[List[float]]]

# Shard routing hook (see repro.sim.sharded): called once per broadcast
# copy with (source_region, message, remote_regions, deliver_time) for
# the target regions this shard does not own; the sharded driver
# re-injects them via :meth:`VBcast.apply_remote`.
ShardRouter = Callable[[RegionId, Any, Tuple[RegionId, ...], float], None]


class VBcast:
    """Reliable single-hop broadcast between clients and VSAs."""

    #: Optional :class:`~repro.energy.EnergyLedger`: tx charged once per
    #: broadcast at the source, rx once per endpoint delivery (both
    #: happen in exactly one shard, so sums stay K-invariant).
    energy_ledger = None

    def __init__(self, sim: Simulator, tiling: Tiling, delta: float, e: float = 0.0) -> None:
        if delta < 0 or e < 0:
            raise ValueError("delta and e must be non-negative")
        self.sim = sim
        self.tiling = tiling
        self.delta = delta
        self.e = e
        self._endpoints: Dict[RegionId, List[Tuple[str, Endpoint]]] = {}
        #: Optional fault-injection interposition point (repro.faults).
        #: When None (the default) bcast is exactly the single-hop path.
        self.fault_filter: Optional[FaultFilter] = None
        #: Region-ownership predicate (repro.sim.sharded).  When set,
        #: local delivery covers only owned target regions; the rest are
        #: handed to :attr:`shard_router` for cross-shard transport.
        self.owned_filter: Optional[Callable[[RegionId], bool]] = None
        #: Cross-shard routing point, paired with :attr:`owned_filter`.
        self.shard_router: Optional[ShardRouter] = None
        self.broadcasts = 0
        self.deliveries = 0

    def register(self, region: RegionId, name: str, endpoint: Endpoint) -> None:
        """Attach a named endpoint living in ``region``."""
        self._endpoints.setdefault(region, []).append((name, endpoint))

    def unregister(self, region: RegionId, name: str) -> None:
        entries = self._endpoints.get(region, [])
        self._endpoints[region] = [(n, ep) for n, ep in entries if n != name]

    def bcast(self, source_region: RegionId, message: Any, from_vsa: bool = False) -> None:
        """Broadcast to all endpoints in the source region and its neighbors.

        Args:
            source_region: Originating region.
            message: Payload.
            from_vsa: VSA-originated messages incur the emulation output
                lag ``e`` in addition to ``δ``.
        """
        self.broadcasts += 1
        ledger = self.energy_ledger
        if ledger is not None:
            ledger.charge_vbcast(source_region)
        delay = self.delta + (self.e if from_vsa else 0.0)
        targets = [source_region, *self.tiling.neighbors(source_region)]
        owned = self.owned_filter
        remote: Tuple[RegionId, ...] = ()
        if owned is not None:
            remote = tuple(r for r in targets if not owned(r))
            targets = [r for r in targets if owned(r)]

        def deliver() -> None:
            ledger = self.energy_ledger
            for region in targets:
                for _name, endpoint in list(self._endpoints.get(region, [])):
                    self.deliveries += 1
                    if ledger is not None:
                        ledger.charge_vbcast_rx(region)
                    endpoint(message, source_region)

        delays = [delay]
        if self.fault_filter is not None:
            faulted = self.fault_filter(source_region, message, delay, from_vsa)
            if faulted is not None:
                delays = list(faulted)
        router = self.shard_router
        for copy_delay in delays:
            if targets:
                self.sim.call_after(copy_delay, deliver, tag="vbcast")
            if remote and router is not None:
                router(source_region, message, remote, self.sim.now + copy_delay)

    def apply_remote(
        self, source_region: RegionId, message: Any, regions: Sequence[RegionId]
    ) -> None:
        """Deliver a broadcast copy routed in from another shard.

        Applies the terminal delivery to endpoints in ``regions`` at the
        current simulation time; the sending shard already counted the
        broadcast and ran fault interposition.
        """
        ledger = self.energy_ledger
        for region in regions:
            for _name, endpoint in list(self._endpoints.get(region, [])):
                self.deliveries += 1
                if ledger is not None:
                    ledger.charge_vbcast_rx(region)
                endpoint(message, source_region)
