"""The per-region energy ledger, charged from the dispatch hooks.

:class:`EnergyLedger` subscribes to the same observation points the
work accountant and the sharded trace already use:

* :meth:`~repro.geocast.cgcast.CGcast.observe` — every C-gcast dispatch
  fires one :class:`~repro.geocast.cgcast.SendRecord` in exactly one
  shard, so charging tx at the sender's region and rx at the
  destination's region from the record keeps per-region sums exact
  under sharding (the same shard-sum-exactness argument as the work
  counters, DESIGN.md §8);
* :meth:`EnergyLedger.charge_vbcast` / :meth:`~EnergyLedger.charge_vbcast_rx`
  — the per-broadcast charges of the update model: tx once at the
  source, rx once per endpoint delivery.  No built system broadcasts
  through :class:`~repro.vsa.vbcast.VBcast`, so no run calls them and
  the ``vbcast*`` payload fields read 0 (ROADMAP items 2, 5);
* :meth:`~repro.core.vinestalk.VineStalk._deliver_evader_event` — one
  sense charge per delivered ``move``, behind the client filter.

rx is charged at *dispatch* time alongside tx for C-gcast (the §II-C.3
channel delivers every copy; under message-loss faults the region still
pays the listening window), which keeps the per-region maps a pure
function of the send set — and therefore engine-fingerprint-equal
whenever the canonical send fingerprints are.

Conservation invariant (pinned by the hypothesis suite): the per-region
maps and the per-channel accumulators are two decompositions of the
same total::

    sum(tx) + sum(rx) + sum(sense) == dispatch_energy + vbcast_energy
                                      + sense_energy

and :func:`merge_energy` over per-shard ``as_dict`` payloads is
associative and commutative, so any merge tree yields the serial run's
ledger.

Idle energy is deliberately absent here — see
:class:`~repro.energy.model.EnergyModel.idle_cost`.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Optional

from ..hierarchy.cluster import ClusterId
from .model import EnergyModel

#: Schema tag of the ``as_dict`` payload.
ENERGY_SCHEMA = "energy/1"
#: The ``as_dict`` fields besides the per-region and total charges.
_COUNTERS = (
    "dispatches", "dispatch_energy", "vbcasts", "vbcast_deliveries",
    "vbcast_energy", "senses", "sense_energy",
)


class EnergyLedger:
    """Accumulate per-region tx/rx/sense energy for one shard replica.

    Args:
        model: The frozen cost model.
        hierarchy: The cluster hierarchy — resolves a cluster endpoint
            to the region hosting it (its head VSA's region).
    """

    def __init__(self, model: EnergyModel, hierarchy: Any) -> None:
        self.model = model
        self.hierarchy = hierarchy
        self.tx: Dict[Any, float] = {}
        self.rx: Dict[Any, float] = {}
        self.sense: Dict[Any, float] = {}
        self.dispatches = 0
        self.dispatch_energy = 0.0
        self.vbcasts = 0
        self.vbcast_deliveries = 0
        self.vbcast_energy = 0.0
        self.senses = 0
        self.sense_energy = 0.0
        # Dispatch endpoint -> the region hosting it.
        self._endpoint_regions: Dict[Any, Any] = {}
        self._cgcast = None  # the attached service, for _settle()

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach(self, cgcast) -> "EnergyLedger":
        """Subscribe to ``cgcast`` dispatches."""
        cgcast.observe(self.observe_send)
        self._cgcast = cgcast
        return self

    def _settle(self) -> None:
        """Charge the sends still pending in the attached C-gcast first.

        What runs inside an event (a V-bcast charge, the rate policy's
        read) must find the dispatches before it already on the ledger.
        """
        if self._cgcast is not None:
            self._cgcast.flush()

    def region_of(self, endpoint: Any):
        """The region physically hosting a dispatch endpoint."""
        if isinstance(endpoint, ClusterId):
            return self.hierarchy.head(endpoint)
        if (
            isinstance(endpoint, tuple)
            and len(endpoint) == 2
            and endpoint[0] == "clients"
        ):
            return endpoint[1]
        return endpoint  # already a region id (client sender)

    # ------------------------------------------------------------------
    # Charge points
    # ------------------------------------------------------------------
    def observe_send(self, records) -> None:
        """A batch of C-gcast dispatches: tx at each sender, rx at each receiver."""
        tx_cost, rx_cost = self.model.tx_cost, self.model.rx_cost
        regions = self._endpoint_regions
        tx_by, rx_by = self.tx, self.rx
        energy = self.dispatch_energy
        for _time, src, dest, _payload, cost, _delay in records:
            tx = tx_cost * cost
            rx = rx_cost * cost
            at = regions.get(src)
            if at is None:
                at = regions[src] = self.region_of(src)
            tx_by[at] = tx_by.get(at, 0.0) + tx
            at = regions.get(dest)
            if at is None:
                at = regions[dest] = self.region_of(dest)
            rx_by[at] = rx_by.get(at, 0.0) + rx
            energy += tx + rx
        self.dispatches += len(records)
        self.dispatch_energy = energy

    def charge_vbcast(self, source_region) -> None:
        """One V-bcast transmission (unit work at the source region)."""
        self._settle()
        tx = self.model.tx_cost
        self.tx[source_region] = self.tx.get(source_region, 0.0) + tx
        self.vbcasts += 1
        self.vbcast_energy += tx

    def charge_vbcast_rx(self, region) -> None:
        """One V-bcast endpoint delivery (unit listening work)."""
        self._settle()
        rx = self.model.rx_cost
        self.rx[region] = self.rx.get(region, 0.0) + rx
        self.vbcast_deliveries += 1
        self.vbcast_energy += rx

    def charge_sense(self, region) -> None:
        """One evader detection at ``region``."""
        cost = self.model.sense_cost
        self.sense[region] = self.sense.get(region, 0.0) + cost
        self.senses += 1
        self.sense_energy += cost

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def region_charge(self, region) -> float:
        """Total charged energy (tx+rx+sense) at one region."""
        return (
            self.tx.get(region, 0.0)
            + self.rx.get(region, 0.0)
            + self.sense.get(region, 0.0)
        )

    def max_region_charge(self) -> float:
        """The hottest region's charge (0.0 on an untouched ledger)."""
        self._settle()
        regions = set(self.tx) | set(self.rx) | set(self.sense)
        if not regions:
            return 0.0
        return max(self.region_charge(r) for r in regions)

    def total_charged(self) -> float:
        return (
            sum(self.tx.values())
            + sum(self.rx.values())
            + sum(self.sense.values())
        )

    def as_dict(self) -> Dict[str, Any]:
        """Picklable/JSON-able payload (region keys stringified)."""
        regions = sorted(set(self.tx) | set(self.rx) | set(self.sense))
        per_region = {}
        for region in regions:
            tx = self.tx.get(region, 0.0)
            rx = self.rx.get(region, 0.0)
            sense = self.sense.get(region, 0.0)
            per_region[repr(region)] = {
                "tx": tx, "rx": rx, "sense": sense, "total": tx + rx + sense,
            }
        return {
            "schema": ENERGY_SCHEMA,
            "per_region": per_region,
            "totals": {
                "tx": sum(self.tx.values()),
                "rx": sum(self.rx.values()),
                "sense": sum(self.sense.values()),
                "total": self.total_charged(),
            },
            **{key: getattr(self, key) for key in _COUNTERS},
        }


def merge_energy(payloads: Iterable[Dict[str, Any]]) -> Optional[Dict[str, Any]]:
    """Merge per-shard ``as_dict`` payloads by summation.

    Associative and commutative (every field is a sum of per-charge
    contributions, each made in exactly one shard), so the K-shard merge
    equals the serial ledger.  Returns ``None`` for an empty input.
    """
    merged: Optional[Dict[str, Any]] = None
    for payload in payloads:
        if payload is None:
            continue
        if merged is None:
            merged = {
                "schema": payload["schema"],
                "per_region": {},
                "totals": dict.fromkeys(payload["totals"], 0.0),
                **dict.fromkeys(_COUNTERS, 0),
            }
        per_region = merged["per_region"]
        for key, value in payload["per_region"].items():
            slot = per_region.setdefault(key, dict.fromkeys(value, 0.0))
            for part, charge in value.items():
                slot[part] += charge
        for part, charge in payload["totals"].items():
            merged["totals"][part] += charge
        for key in _COUNTERS:
            merged[key] += payload[key]
    return merged
