"""Virtual Stationary Automata hosts (§II-C.2).

A VSA ``V_u`` is a clock-equipped virtual machine for region ``u``,
structured as a union of subautomata ``V_{u,l}`` — one per cluster its
region heads.  :class:`VsaHost` is that union: it groups the hosted
subautomata (e.g. Tracker processes) and gives them common fail/restart
semantics — a VSA fails as a whole (its region emptied of clients) and
restarts as a whole from initial state.
"""

from __future__ import annotations

from typing import Dict, List

from ..geometry.regions import RegionId
from ..tioa.automaton import TimedAutomaton


class VsaHost:
    """The VSA ``V_u``: all subautomata hosted at region ``u``.

    Attributes:
        region: The VSA's region ``u``.
        failed: Whether the VSA is currently failed.
    """

    def __init__(self, region: RegionId) -> None:
        self.region = region
        self.failed = False
        self._subautomata: Dict[str, TimedAutomaton] = {}
        self.fail_count = 0
        self.restart_count = 0
        self._observers = []  # callbacks (host, "fail" | "restart")

    def observe(self, callback) -> None:
        """Register a lifecycle observer (e.g. the physical router)."""
        self._observers.append(callback)

    @property
    def name(self) -> str:
        return f"vsa:{self.region}"

    def add_subautomaton(self, key: str, automaton: TimedAutomaton) -> TimedAutomaton:
        """Attach subautomaton ``V_{u,l}`` under a host-unique key."""
        if key in self._subautomata:
            raise ValueError(f"{self.name} already hosts {key!r}")
        self._subautomata[key] = automaton
        if self.failed:
            automaton.fail()
        return automaton

    def subautomata(self) -> List[TimedAutomaton]:
        return [self._subautomata[k] for k in sorted(self._subautomata)]

    def fail(self) -> None:
        """Fail the whole VSA: every hosted subautomaton stops."""
        if self.failed:
            return
        self.failed = True
        self.fail_count += 1
        for automaton in self.subautomata():
            automaton.fail()
        for callback in self._observers:
            callback(self, "fail")

    def restart(self) -> None:
        """Restart the whole VSA from initial state."""
        if not self.failed:
            return
        self.failed = False
        self.restart_count += 1
        for automaton in self.subautomata():
            automaton.restart()
        for callback in self._observers:
            callback(self, "restart")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        status = "FAILED" if self.failed else "up"
        return f"<VsaHost {self.region!r} {status} ({len(self._subautomata)} subautomata)>"
