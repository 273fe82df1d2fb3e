"""Shared fixtures for core tests."""

from typing import Any, List, Tuple

import pytest

from repro.core import Tracker, grid_schedule
from repro.hierarchy import grid_hierarchy
from repro.sim import Simulator
from repro.tioa import Executor

DELTA = 1.0
E = 0.5


class StubGcast:
    """Records Tracker sends without routing them anywhere."""

    def __init__(self):
        self.vsa_sends: List[Tuple[Any, Any, Any]] = []  # (src, dest, payload)
        self.client_sends: List[Tuple[Any, Any]] = []  # (src, payload)

    def send_vsa(self, src, dest, payload):
        self.vsa_sends.append((src, dest, payload))

    def send_to_clients(self, src, payload):
        self.client_sends.append((src, payload))

    def of_kind(self, kind: str):
        return [(s, d, p) for s, d, p in self.vsa_sends if p.kind == kind]

    def clear(self):
        self.vsa_sends.clear()
        self.client_sends.clear()


class TrackerRig:
    """One hierarchy + executor + stub channel, building trackers on demand."""

    def __init__(self, r=3, max_level=2):
        self.hierarchy = grid_hierarchy(r, max_level)
        self.sim = Simulator()
        self.executor = Executor(self.sim)
        self.gcast = StubGcast()
        # g0 > 0 so grow-timer behaviour is observable between deliveries.
        self.schedule = grid_schedule(self.hierarchy.params, DELTA, E, r, g0=0.5)
        self._trackers = {}

    def tracker(self, region, level, cls=Tracker) -> Tracker:
        clust = self.hierarchy.cluster(region, level)
        if clust not in self._trackers:
            tracker = cls(
                self.hierarchy, clust, self.gcast, self.schedule, DELTA, E
            )
            self.executor.register(tracker)
            self._trackers[clust] = tracker
        return self._trackers[clust]

    def deliver(self, tracker, message):
        """Deliver a cTOBrcv and drain urgent outputs, as C-gcast does."""
        tracker.input_cTOBrcv(message)
        self.executor.kick(tracker)

    def run(self, duration=None):
        if duration is None:
            self.sim.run()
        else:
            self.sim.run_until(self.sim.now + duration)


@pytest.fixture()
def rig():
    return TrackerRig()
