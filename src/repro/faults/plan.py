"""Declarative fault plans (the *what* of fault injection).

A :class:`FaultPlan` is an ordered, immutable composition of
:class:`FaultRule` values.  Rules are pure data — they carry rates,
windows and magnitudes, never code or RNG state — so a plan can be
hashed, pickled across sweep workers, embedded in a
:class:`~repro.scenario.ScenarioConfig` and compared for equality.  The
:class:`~repro.faults.injector.FaultInjector` turns a plan into live
perturbations through the explicit hooks each layer exposes; every
random draw comes from a per-rule stream of a
:class:`~repro.sim.rng.RngRegistry`, so the same seed and the same plan
always reproduce the same execution bit for bit.

The rule vocabulary covers the three layers the paper's guarantees rest
on:

* **VSA lifecycle** — :class:`VsaCrashes` (stochastic per-region
  crashes with a fixed downtime) and :class:`RegionBlackout` (scheduled
  outages of chosen regions), both strictly stronger than the built-in
  empty-region failure of §II-C.2;
* **Communication** — :class:`MessageLoss`, :class:`MessageDuplication`
  and :class:`MessageJitter` perturb the C-gcast delivery the §II-C.3
  delay table otherwise provides by fiat, and
  :class:`LagSpike` models a burst of emulation lag (``e`` growing for
  a window);
* **Sensing** — :class:`GpsStaleness` delays the augmented GPS
  ``move``/``left`` inputs of §III.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

#: Channel selectors for message-perturbing rules.  Built systems have
#: the C-gcast channel only: ``"both"`` means every channel the system
#: has, and ``FaultInjector.arm`` refuses a rule on ``"vbcast"`` alone.
CHANNEL_CGCAST = "cgcast"
CHANNEL_VBCAST = "vbcast"
CHANNEL_BOTH = "both"
_CHANNELS = (CHANNEL_CGCAST, CHANNEL_VBCAST, CHANNEL_BOTH)


@dataclass(frozen=True)
class FaultRule:
    """Base class for all fault rules (pure data, no behaviour)."""

    def is_null(self) -> bool:
        """True when the rule provably cannot perturb an execution."""
        return False

    def applies_to(self, channel: str) -> bool:
        """Whether a message-level rule interposes on ``channel``."""
        return False


def _check_rate(rate: float, name: str = "rate") -> None:
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {rate}")


@dataclass(frozen=True)
class _ChannelRule(FaultRule):
    """Shared shape of the message-perturbing rules."""

    rate: float = 0.0
    channel: str = CHANNEL_CGCAST

    def __post_init__(self) -> None:
        _check_rate(self.rate)
        if self.channel not in _CHANNELS:
            raise ValueError(f"channel must be one of {_CHANNELS}")

    def is_null(self) -> bool:
        return self.rate == 0.0

    def applies_to(self, channel: str) -> bool:
        return self.channel == CHANNEL_BOTH or self.channel == channel


@dataclass(frozen=True)
class MessageLoss(_ChannelRule):
    """Drop each message copy independently with probability ``rate``."""


@dataclass(frozen=True)
class MessageDuplication(_ChannelRule):
    """With probability ``rate``, deliver ``copies`` extra copies."""

    copies: int = 1

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.copies < 1:
            raise ValueError("copies must be >= 1")


@dataclass(frozen=True)
class MessageJitter(_ChannelRule):
    """With probability ``rate``, add U(0, ``max_extra``) to the delay."""

    max_extra: float = 0.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.max_extra < 0:
            raise ValueError("max_extra must be non-negative")

    def is_null(self) -> bool:
        return self.rate == 0.0 or self.max_extra == 0.0


@dataclass(frozen=True)
class LagSpike(FaultRule):
    """Emulation-lag burst: during ``[at, at + duration)`` every
    VSA-originated message is delayed as if ``e`` grew by ``extra_e``.

    The extra delay is proportional to the §II-C.3 distance the message
    traverses (``extra_e`` per distance unit), exactly how a larger
    emulation lag would enter the delay table.
    """

    at: float = 0.0
    duration: float = 0.0
    extra_e: float = 0.0

    def __post_init__(self) -> None:
        if self.at < 0 or self.duration < 0 or self.extra_e < 0:
            raise ValueError("at, duration and extra_e must be non-negative")

    def is_null(self) -> bool:
        return self.duration == 0.0 or self.extra_e == 0.0

    def applies_to(self, channel: str) -> bool:
        return channel == CHANNEL_CGCAST

    def active_at(self, now: float) -> bool:
        return self.at <= now < self.at + self.duration


@dataclass(frozen=True)
class VsaCrashes(FaultRule):
    """Stochastic VSA crashes: every ``period``, each alive region's VSA
    crashes independently with probability ``rate`` and restarts (from
    initial state) ``downtime`` later.

    This goes beyond the §II-C.2 empty-region failure: the region's
    client population is untouched — the virtual machine itself dies.
    """

    rate: float = 0.0
    period: float = 50.0
    downtime: float = 100.0
    start: float = 0.0

    def __post_init__(self) -> None:
        _check_rate(self.rate)
        if self.period <= 0:
            raise ValueError("period must be positive")
        if self.downtime < 0 or self.start < 0:
            raise ValueError("downtime and start must be non-negative")

    def is_null(self) -> bool:
        return self.rate == 0.0


@dataclass(frozen=True)
class RegionBlackout(FaultRule):
    """Scheduled outage: the VSAs of ``regions`` fail at ``at`` and
    restart (from initial state) at ``at + duration``.

    When ``regions`` is empty, ``count`` regions are drawn uniformly
    (from the rule's own RNG stream) at injection time.
    """

    at: float = 0.0
    duration: float = 100.0
    regions: Tuple = field(default_factory=tuple)
    count: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "regions", tuple(self.regions))
        if self.at < 0 or self.duration < 0:
            raise ValueError("at and duration must be non-negative")
        if self.count < 0:
            raise ValueError("count must be non-negative")

    def is_null(self) -> bool:
        return (not self.regions and self.count == 0) or self.duration == 0.0


@dataclass(frozen=True)
class GpsStaleness(FaultRule):
    """With probability ``rate``, deliver a GPS input ``delay`` late.

    Applies to the augmented ``move``/``left`` evader inputs of §III,
    in every regime.
    """

    rate: float = 0.0
    delay: float = 0.0

    def __post_init__(self) -> None:
        _check_rate(self.rate)
        if self.delay < 0:
            raise ValueError("delay must be non-negative")

    def is_null(self) -> bool:
        return self.rate == 0.0 or self.delay == 0.0


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, ordered composition of fault rules.

    Attributes:
        rules: The rules, applied in order at each interposition point.
        horizon: Faults are active only while ``sim.now < horizon``
            (``None`` means forever).  Stochastic crash rules stop
            rescheduling their ticks past the horizon, so a bounded plan
            lets a run drain to quiescence afterwards.
    """

    rules: Tuple[FaultRule, ...] = ()
    horizon: Optional[float] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "rules", tuple(self.rules))
        for rule in self.rules:
            if not isinstance(rule, FaultRule):
                raise TypeError(f"not a FaultRule: {rule!r}")
        if self.horizon is not None and self.horizon < 0:
            raise ValueError("horizon must be non-negative")

    @classmethod
    def of(cls, *rules: FaultRule, horizon: Optional[float] = None) -> "FaultPlan":
        return cls(rules=tuple(rules), horizon=horizon)

    def is_null(self) -> bool:
        """True when no rule can perturb anything (a provable no-op)."""
        return all(rule.is_null() for rule in self.rules)


def default_plan(
    loss_rate: float = 0.05,
    crash_rate: float = 0.0,
    jitter_rate: float = 0.0,
    jitter_max: float = 10.0,
    horizon: Optional[float] = None,
) -> FaultPlan:
    """The standard chaos cocktail used by the CLI, bench and CI smoke:
    C-gcast loss and jitter, and VSA crashes every 50 time units that
    last 100.  Other mixes are built with :meth:`FaultPlan.of`.

    Only rules with a nonzero rate are included, so
    ``default_plan(loss_rate=0, crash_rate=0)`` is a provable no-op
    (``plan.is_null()`` holds).
    """
    rules = []
    if loss_rate:
        rules.append(MessageLoss(rate=loss_rate, channel=CHANNEL_BOTH))
    if jitter_rate:
        rules.append(
            MessageJitter(rate=jitter_rate, max_extra=jitter_max, channel=CHANNEL_BOTH)
        )
    if crash_rate:
        rules.append(VsaCrashes(rate=crash_rate, period=50.0, downtime=100.0))
    return FaultPlan(rules=tuple(rules), horizon=horizon)
