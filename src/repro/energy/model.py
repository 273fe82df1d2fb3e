"""The frozen per-operation energy cost model (``energy/1``).

Costs follow the adaptive-update-rate literature (arXiv 1108.1321):
radios dominate, so transmission and reception are charged per
*distance unit* of communication work (the same §II-C.3 cost algebra
the work accountant uses), sensing is charged per detection event, and
idling is a constant per-region drain over simulated time.

The model is carried on :class:`~repro.scenario.ScenarioConfig` as a
frozen, picklable value: two configs with the same model build the
same world.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class EnergyModel:
    """Per-operation energy costs, in abstract energy units.

    Attributes:
        tx_cost: Energy per distance unit of *transmitted* work,
            charged at the sender's region.
        rx_cost: Energy per distance unit of *received* work, charged
            at the destination's region (listening is cheaper than
            transmitting on real radios, hence the asymmetric default).
        idle_cost: Constant per-region drain per unit of simulated
            time.  Idle energy is **not** tracked by the ledger — it is
            a closed-form function of the merged run horizon, computed
            by :func:`~repro.energy.metrics.energy_metrics` after the
            shard merge so per-shard clock skew never enters a charge.
        sense_cost: Energy per evader detection (one augmented-GPS
            ``move`` delivered at a region).
        budget: Optional per-region battery capacity.  ``None`` means
            unbounded (no lifetime estimate, no update-rate pressure);
            when set, :func:`~repro.energy.metrics.energy_metrics`
            projects first-node-death / network-lifetime times and
            :class:`~repro.energy.policy.AdaptiveRatePolicy` throttles
            discretionary traffic as regions approach it.
    """

    tx_cost: float = 1.0
    rx_cost: float = 0.5
    idle_cost: float = 0.01
    sense_cost: float = 0.2
    budget: Optional[float] = None

    def __post_init__(self) -> None:
        for name in ("tx_cost", "rx_cost", "idle_cost", "sense_cost"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.budget is not None and self.budget <= 0:
            raise ValueError("budget must be positive (or None)")
