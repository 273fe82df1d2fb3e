"""Divergence bisection: localize where two "identical" runs split.

A golden mismatch ("obs-on differs from obs-off", "these two seeds
should match") historically meant staring at full traces.
:func:`bisect_divergence` turns it into one call: it replays the
canonical tracked walk under two :class:`Variant` environments in
interleaved windows, folding a rolling per-event fingerprint on each
side and checkpointing at every window boundary.
When a window's fingerprints disagree, the first diverging event inside
it is binary-searched from the recorded fingerprints, both sides are
**restored from the last agreeing checkpoint** and stepped to the exact
boundary, and the report carries the diverging event's time, tag and
C-gcast send lines from each side — live state at the split, not a log
dump.

Rolling fingerprint: per fired event, fold the post-event clock and the
world's send CRC (:class:`~repro.sim.sharded.context.SendFold`, which
every send the event made has just entered) into a CRC.  Equal prefixes
⇒ equal CRC sequences; after the first divergence the CRCs stay
different (rolling), which is what makes the binary search valid.  A
side costs O(1) per event and its checkpoints stay the size of the
world, not of the run.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..faults.plan import CHANNEL_BOTH, FaultPlan, MessageLoss
from ..scenario import Scenario, ScenarioConfig
from ..sim.sharded.context import canonical_send_line
from .snapshot import Snapshot, restore_scenario, snapshot_scenario
from .workload import build_tracked_walk, walk_horizon


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
            config = config.with_(
                fault_plan=FaultPlan.of(
                    MessageLoss(rate=self.loss, channel=CHANNEL_BOTH)
                )
            )
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

    The obs gate is a process global, so interleaved windows swap it in
    and out around each side's turn.
    """

    def __init__(self, variant: Variant) -> None:
        self.variant = variant
        self._saved: Optional[tuple] = None
        self._collector = None

    def __enter__(self) -> "_Env":
        from ..obs._state import OBS

        self._saved = (OBS.events_enabled, OBS.collector)
        if self.variant.obs:
            if self._collector is None:
                from ..obs.collector import ObsCollector

                self._collector = ObsCollector()
            OBS.events_enabled = True
            OBS.collector = self._collector
        else:
            OBS.events_enabled = False
            OBS.collector = None
        return self

    def __exit__(self, *exc) -> None:
        from ..obs._state import OBS

        OBS.events_enabled, OBS.collector = self._saved


# ----------------------------------------------------------------------
# One recorded side
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
    """One variant's run: stepping, rolling CRCs, window checkpoints."""

    def __init__(
        self, config: ScenarioConfig, variant: Variant, moves: int
    ) -> None:
        self.env = _Env(variant)
        self.variant = variant
        with self.env:
            self.scenario: Scenario = build_tracked_walk(
                variant.apply(config), moves=moves
            )
        self.crc = 0
        self.window_fps: List[int] = []
        self.events = 0
        self.checkpoint: Snapshot = self._snapshot()
        self.checkpoint_events = 0
        self.checkpoints_taken = 1

    def _snapshot(self) -> Snapshot:
        return snapshot_scenario(self.scenario)

    def _fold_event(self) -> None:
        send_crc = self.scenario.send_fold.crc
        self.crc = zlib.crc32(f"{self.scenario.sim.now!r}|{send_crc}".encode(), self.crc)

    def run_window(self, window: int, until: float) -> int:
        """Fire up to ``window`` events under this side's env.

        Appends one rolling fingerprint per fired event to
        ``window_fps`` (cleared first) and returns how many fired.
        """
        self.window_fps.clear()
        sim = self.scenario.sim
        with self.env:
            for _ in range(window):
                if not sim.step(until=until):
                    break
                self._fold_event()
                self.window_fps.append(self.crc)
        self.events += len(self.window_fps)
        return len(self.window_fps)

    def take_checkpoint(self) -> None:
        self.checkpoint = self._snapshot()
        self.checkpoint_events = self.events
        self.checkpoints_taken += 1

    def replay_to(self, offset: int) -> Tuple[Scenario, Optional[_EventInfo]]:
        """Restore the window checkpoint and step ``offset + 1`` events.

        Returns the restored scenario positioned right after the event
        at ``offset`` (0-based within the window) plus that event's
        :class:`_EventInfo`.
        """
        restored = restore_scenario(self.checkpoint).scenario
        sim = restored.sim
        sends: list = []
        restored.system.cgcast.observe(sends.extend)
        with self.env:
            for _ in range(offset + 1):
                event = sim._queue.peek()
                if event is None:
                    return restored, None
                sends.clear()
                sim.step()
        lines = tuple(canonical_send_line(record) for record in sends)
        return restored, _EventInfo(time=sim.now, tag=event.tag, send_lines=lines)


# ----------------------------------------------------------------------
# The bisection
# ----------------------------------------------------------------------
@dataclass
class DivergenceReport:
    """Outcome of one bisection."""

    diverged: bool
    variant_a: str
    variant_b: str
    event_index: Optional[int] = None
    events_compared: int = 0
    checkpoints: int = 0
    window: int = 0
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
            "checkpoints": self.checkpoints,
            "window": self.window,
            "event_a": None if self.event_a is None else self.event_a.as_dict(),
            "event_b": None if self.event_b is None else self.event_b.as_dict(),
            "fingerprint_a": self.fingerprint_a,
            "fingerprint_b": self.fingerprint_b,
            "note": self.note,
        }


def _first_mismatch(a: List[int], b: List[int], n: int) -> int:
    """Binary-search the first index < n where the CRC sequences differ.

    Valid because a rolling CRC sequence is prefix-stable: once the
    sides diverge, every later fingerprint differs too — mismatch is a
    monotone predicate over the index.
    """
    lo, hi = 0, n - 1  # invariant: mismatch exists in [lo, hi]
    while lo < hi:
        mid = (lo + hi) // 2
        if a[mid] != b[mid]:
            hi = mid
        else:
            lo = mid + 1
    return lo


def bisect_divergence(
    config: ScenarioConfig,
    variant_a: Variant,
    variant_b: Variant,
    moves: int = 5,
    until: Optional[float] = None,
    window: int = 256,
    max_events: int = 1_000_000,
) -> DivergenceReport:
    """Replay ``config`` under two variants and localize their split.

    Both sides run the canonical tracked walk to ``until`` (default:
    the walk's settle horizon).  Execution interleaves in ``window``-
    event slices with a checkpoint at each window boundary; the first
    window whose fingerprints disagree is bisected, both sides are
    restored from their last agreeing checkpoint, and the report pins
    the first diverging event (0-based global index) with each side's
    view of it.
    """
    if window < 1 or max_events < 1:
        # A zero-event window compares nothing and reports "no divergence".
        raise ValueError(
            f"window and max_events must be >= 1, got {window} and {max_events}"
        )
    if until is None:
        until = walk_horizon(moves)
    side_a = _Side(config, variant_a, moves)
    side_b = _Side(config, variant_b, moves)
    report = DivergenceReport(
        diverged=False,
        variant_a=variant_a.describe(),
        variant_b=variant_b.describe(),
        window=window,
    )

    while side_a.events < max_events:
        fired_a = side_a.run_window(window, until)
        fired_b = side_b.run_window(window, until)
        compared = min(fired_a, fired_b)
        report.events_compared += compared
        fps_a, fps_b = side_a.window_fps, side_b.window_fps
        if fps_a[:compared] != fps_b[:compared]:
            offset = _first_mismatch(fps_a, fps_b, compared)
            scenario_a, event_a = side_a.replay_to(offset)
            scenario_b, event_b = side_b.replay_to(offset)
            report.diverged = True
            report.event_index = side_a.events - fired_a + offset
            report.checkpoints = (
                side_a.checkpoints_taken + side_b.checkpoints_taken
            )
            report.event_a = event_a
            report.event_b = event_b
            report.fingerprint_a = fps_a[offset]
            report.fingerprint_b = fps_b[offset]
            report.note = (
                f"first divergence at event {report.event_index} "
                f"(window offset {offset}); replayed from checkpoints at "
                f"event {side_a.checkpoint_events}"
            )
            return report
        if fired_a != fired_b:
            # Equal prefixes but one side ran out of events first: the
            # divergence is the extra event itself.
            longer = side_a if fired_a > fired_b else side_b
            offset = compared
            scenario_x, event_x = longer.replay_to(offset)
            report.diverged = True
            report.event_index = longer.events - max(fired_a, fired_b) + offset
            report.checkpoints = (
                side_a.checkpoints_taken + side_b.checkpoints_taken
            )
            if longer is side_a:
                report.event_a = event_x
            else:
                report.event_b = event_x
            report.note = (
                f"sides fired different event counts "
                f"({fired_a} vs {fired_b} in the final window)"
            )
            return report
        if fired_a == 0:
            break  # both drained, no divergence
        side_a.take_checkpoint()
        side_b.take_checkpoint()

    report.checkpoints = side_a.checkpoints_taken + side_b.checkpoints_taken
    report.fingerprint_a = side_a.crc
    report.fingerprint_b = side_b.crc
    report.note = (
        f"no divergence over {report.events_compared} compared events"
    )
    return report
