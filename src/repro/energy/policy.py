"""Adaptive update-rate policy: trade accuracy for network lifetime.

Following the adaptive-rate tracking literature (arXiv 1108.1321), a
tracker carrying an energy budget can throttle *discretionary* traffic
— pre-configuration, refresh, speculation — when regions approach
battery exhaustion, while mandatory Fig. 2 correctness traffic
(grow/shrink/find) always flows.

The policy is deliberately deterministic: a pure counter decimation
(keep one update in :data:`KEEP_EVERY`) rather than a random drop, so a
seeded run is reproducible.  Pressure reads the *local* ledger, which
under sharding is the shard's own partial view — throttled systems are
therefore seed-deterministic per engine but not fingerprint-comparable
across shard counts (classic, unthrottled trackers remain so; the
cross-baseline gate only pins those).
"""

from __future__ import annotations

from .ledger import EnergyLedger

#: Pressure (hottest region charge / budget) above which throttling starts.
THRESHOLD = 0.5
#: Under pressure, pass one send in ``KEEP_EVERY``.
KEEP_EVERY = 4


class AdaptiveRatePolicy:
    """Counter-based decimation of discretionary sends under pressure.

    Args:
        ledger: The live energy ledger to read pressure from.
    """

    def __init__(self, ledger: EnergyLedger) -> None:
        self.ledger = ledger
        self.calls = 0
        self.suppressed = 0

    def pressure(self) -> float:
        """Hottest-region charge as a fraction of the budget (0 if none)."""
        budget = self.ledger.model.budget
        if budget is None:
            return 0.0
        return self.ledger.max_region_charge() / budget

    def allow(self) -> bool:
        """Whether the next discretionary send should go out."""
        self.calls += 1
        if self.pressure() < THRESHOLD:
            return True
        if self.calls % KEEP_EVERY == 0:
            return True
        self.suppressed += 1
        return False
