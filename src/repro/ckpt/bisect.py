"""Divergence bisection: localize where two "identical" runs split.

A golden mismatch ("obs-on differs from obs-off", "these two seeds
should match") historically meant staring at full traces.
:func:`bisect_divergence` turns it into one call: it runs two runs —
each a ``(config, script)`` pair, as :func:`~repro.ckpt.read_run` reads
from a run file — from t=0 in lockstep, one event per side at a time,
folding a rolling per-event fingerprint on each side.  At the first
event whose fingerprints disagree it stops, and the report carries that
event's time, queue tag and C-gcast send lines from each live run —
state at the split, with no checkpoint and no replay.

Rolling fingerprint: per fired event, fold the post-event clock and the
world's send CRC (:class:`~repro.sim.sharded.context.SendFold`, which
every send the event made has just entered) into a CRC.  Equal prefixes
⇒ equal CRC sequences, so the first unequal pair is the first event at
which the two executions differ.  A side costs O(1) per event.
"""

from __future__ import annotations

import zlib
from dataclasses import asdict, dataclass
from typing import Any, Dict, Optional, Tuple

from ..scenario import Scenario, ScenarioConfig, build
from ..sim.event_queue import TAG
from ..sim.sharded.context import canonical_send_line
from ..workload import ScriptedWorkload, schedule_workload

#: One side's inputs: what :func:`~repro.ckpt.read_run` returns.
Run = Tuple[ScenarioConfig, ScriptedWorkload]


class _Env:
    """Per-side global toggles, activated only while that side steps.

    The obs gate is a process global, so the lockstep scan swaps it in
    and out around each side's event.
    """

    def __init__(self, obs: bool) -> None:
        from ..obs._state import OBS

        self._obs = OBS
        self._gate: tuple = (False, None)
        if obs:
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


class _Side:
    """One live run, stepped and folded one event at a time."""

    def __init__(
        self, config: ScenarioConfig, script: ScriptedWorkload, obs: bool
    ) -> None:
        self.env = _Env(obs)
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
        entry = sim._queue.peek()
        self.sends.clear()
        with self.env:
            if not sim.step(until=until):
                return False
        self.tag = entry[TAG]
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
    event_index: Optional[int] = None
    events_compared: int = 0
    event_a: Optional[_EventInfo] = None
    event_b: Optional[_EventInfo] = None
    fingerprint_a: int = 0
    fingerprint_b: int = 0
    note: str = ""

    def as_dict(self) -> Dict[str, Any]:
        return asdict(self)


def bisect_divergence(
    run_a: Run,
    run_b: Run,
    obs_b: bool = False,
    until: Optional[float] = None,
    max_events: int = 1_000_000,
) -> DivergenceReport:
    """Run two ``(config, script)`` runs in lockstep and localize their split.

    Both sides run from t=0 to ``until`` (default: until no event is
    left), one event each at a time, for at most ``max_events`` compared
    events; ``obs_b`` opens the obs gate around side B's events.  The
    report pins the first diverging event (0-based index) with each
    side's view of it — none for a side that had already drained.
    """
    if max_events < 1 or (until is not None and until < 0):
        # Either compares nothing and reports "no divergence".
        raise ValueError(
            f"max_events must be >= 1 and until >= 0, got {max_events} and {until}"
        )
    side_a = _Side(*run_a, obs=False)
    side_b = _Side(*run_b, obs=obs_b)
    report = DivergenceReport(diverged=False)

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
