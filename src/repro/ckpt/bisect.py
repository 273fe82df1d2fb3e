"""Divergence bisection: localize where two "identical" runs split.

A golden mismatch ("obs-on differs from obs-off", "these two seeds
should match") historically meant staring at full traces.
:func:`bisect_divergence` turns it into one call: it runs the scripted
walk of :func:`~repro.sim.sharded.walk_scenario` under two
:class:`Variant` environments in lockstep, one
event per side at a time, folding a rolling per-event fingerprint on
each side.  At the first event whose fingerprints disagree it stops,
and the report carries that event's time, queue tag and C-gcast send
lines from each live run — state at the split, with no checkpoint and
no replay.

Rolling fingerprint: per fired event, fold the post-event clock and the
world's send CRC (:class:`~repro.sim.sharded.context.SendFold`, which
every send the event made has just entered) into a CRC.  Equal prefixes
⇒ equal CRC sequences, so the first unequal pair is the first event at
which the two executions differ.  A side costs O(1) per event.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from ..faults.plan import default_plan
from ..scenario import Scenario, ScenarioConfig, build
from ..sim.sharded.context import canonical_send_line
from ..sim.sharded.runner import walk_scenario
from ..sim.sharded.workload import schedule_workload


# ----------------------------------------------------------------------
# Variants: the environment/config axis being compared
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Variant:
    """One side of a bisection: config/environment deltas to apply.

    Attributes:
        obs: Run with observability enabled.
        seed: Override the scenario seed.
        loss: Add a ``MessageLoss`` fault plan at this rate (both
            channels, unbounded horizon).
    """

    obs: bool = False
    seed: Optional[int] = None
    loss: Optional[float] = None

    @classmethod
    def parse(cls, spec: str) -> "Variant":
        """Parse ``"obs:on,seed:6,loss:0.3"`` (order-free).

        An empty spec (or ``"base"``) is the unmodified baseline.
        """
        kwargs: Dict[str, Any] = {}
        spec = spec.strip()
        if spec and spec != "base":
            for token in spec.split(","):
                key, sep, value = token.strip().partition(":")
                if not sep:
                    raise ValueError(f"variant token {token!r} is not key:value")
                if key == "obs":
                    if value not in ("on", "off"):
                        raise ValueError(f"obs must be on/off, got {value!r}")
                    kwargs[key] = value == "on"
                elif key == "seed":
                    kwargs[key] = int(value)
                elif key == "loss":
                    kwargs[key] = float(value)
                else:
                    raise ValueError(
                        f"unknown variant key {key!r} "
                        "(expected obs/seed/loss)"
                    )
        return cls(**kwargs)

    def apply(self, config: ScenarioConfig) -> ScenarioConfig:
        """The scenario config for this side."""
        if self.seed is not None:
            config = config.with_(seed=self.seed)
        if self.loss is not None:
            config = config.with_(fault_plan=default_plan(loss_rate=self.loss))
        return config

    def describe(self) -> str:
        parts = []
        if self.obs:
            parts.append("obs:on")
        if self.seed is not None:
            parts.append(f"seed:{self.seed}")
        if self.loss is not None:
            parts.append(f"loss:{self.loss}")
        return ",".join(parts) or "base"


class _Env:
    """Per-side global toggles, activated only while that side steps.

    The obs gate is a process global, so the lockstep scan swaps it in
    and out around each side's event.
    """

    def __init__(self, variant: Variant) -> None:
        from ..obs._state import OBS

        self._obs = OBS
        self._gate: tuple = (False, None)
        if variant.obs:
            from ..obs.collector import ObsCollector

            self._gate = (True, ObsCollector())
        self._saved: Optional[tuple] = None

    def __enter__(self) -> "_Env":
        obs = self._obs
        self._saved = (obs.events_enabled, obs.collector)
        obs.events_enabled, obs.collector = self._gate
        return self

    def __exit__(self, *exc) -> None:
        self._obs.events_enabled, self._obs.collector = self._saved


# ----------------------------------------------------------------------
# One live side
# ----------------------------------------------------------------------
@dataclass
class _EventInfo:
    """What one fired event did (the report's divergence evidence)."""

    time: float
    tag: Optional[str]
    send_lines: Tuple[str, ...]

    def as_dict(self) -> Dict[str, Any]:
        return {
            "time": self.time,
            "tag": self.tag,
            "send_lines": list(self.send_lines),
        }


class _Side:
    """One variant's live run, stepped and folded one event at a time."""

    def __init__(
        self, config: ScenarioConfig, variant: Variant, moves: int
    ) -> None:
        self.env = _Env(variant)
        config = variant.apply(config)
        _, script = walk_scenario(
            config.r, config.max_level, shards=1, n_moves=moves, seed=config.seed
        )
        with self.env:
            self.scenario: Scenario = build(config)
            schedule_workload(self.scenario.system, script)
        self.crc = 0
        self.tag: Optional[str] = None
        self.sends: list = []
        self.scenario.system.cgcast.observe(self.sends.extend)

    def step(self, until: Optional[float]) -> bool:
        """Fire and fold one event; False, firing nothing, when none is left.

        Afterwards ``tag`` and ``sends`` describe the event just fired:
        the loop hands C-gcast's pending send records to their observers
        as it returns.
        """
        sim = self.scenario.sim
        event = sim._queue.peek()
        self.sends.clear()
        with self.env:
            if not sim.step(until=until):
                return False
        self.tag = event.tag
        send_crc = self.scenario.send_fold.crc
        self.crc = zlib.crc32(f"{sim.now!r}|{send_crc}".encode(), self.crc)
        return True

    def last_event(self) -> _EventInfo:
        lines = tuple(canonical_send_line(record) for record in self.sends)
        return _EventInfo(time=self.scenario.sim.now, tag=self.tag, send_lines=lines)


# ----------------------------------------------------------------------
# The scan
# ----------------------------------------------------------------------
@dataclass
class DivergenceReport:
    """Outcome of one bisection."""

    diverged: bool
    variant_a: str
    variant_b: str
    event_index: Optional[int] = None
    events_compared: int = 0
    event_a: Optional[_EventInfo] = None
    event_b: Optional[_EventInfo] = None
    fingerprint_a: int = 0
    fingerprint_b: int = 0
    note: str = ""

    def as_dict(self) -> Dict[str, Any]:
        return {
            "diverged": self.diverged,
            "variant_a": self.variant_a,
            "variant_b": self.variant_b,
            "event_index": self.event_index,
            "events_compared": self.events_compared,
            "event_a": None if self.event_a is None else self.event_a.as_dict(),
            "event_b": None if self.event_b is None else self.event_b.as_dict(),
            "fingerprint_a": self.fingerprint_a,
            "fingerprint_b": self.fingerprint_b,
            "note": self.note,
        }


def bisect_divergence(
    config: ScenarioConfig,
    variant_a: Variant,
    variant_b: Variant,
    moves: int = 5,
    until: Optional[float] = None,
    max_events: int = 1_000_000,
) -> DivergenceReport:
    """Run ``config`` under two variants in lockstep and localize their split.

    Both sides run the scripted walk of ``moves`` moves, seeded by the
    side's seed, to ``until`` (default: until no event is left), one
    event each at a time, for at most
    ``max_events`` compared events.  The report pins the first
    diverging event (0-based index) with each side's view of it — none
    for a side that had already drained.
    """
    if max_events < 1 or (until is not None and until < 0):
        # Either compares nothing and reports "no divergence".
        raise ValueError(
            f"max_events must be >= 1 and until >= 0, got {max_events} and {until}"
        )
    side_a = _Side(config, variant_a, moves)
    side_b = _Side(config, variant_b, moves)
    report = DivergenceReport(
        diverged=False,
        variant_a=variant_a.describe(),
        variant_b=variant_b.describe(),
    )

    while report.events_compared < max_events:
        fired_a = side_a.step(until)
        fired_b = side_b.step(until)
        if not (fired_a or fired_b):
            break  # both drained, no divergence
        index = report.events_compared
        report.events_compared += 1
        if fired_a and fired_b and side_a.crc == side_b.crc:
            continue
        report.diverged = True
        report.event_index = index
        report.event_a = side_a.last_event() if fired_a else None
        report.event_b = side_b.last_event() if fired_b else None
        report.note = f"first divergence at event {index}"
        if not (fired_a and fired_b):
            report.note += f": side {'B' if fired_a else 'A'} had already drained"
        break

    report.fingerprint_a = side_a.crc
    report.fingerprint_b = side_b.crc
    if not report.diverged:
        report.note = (
            f"no divergence over {report.events_compared} compared events"
        )
    return report
