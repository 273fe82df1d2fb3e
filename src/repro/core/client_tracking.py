"""The VINESTALK client algorithm (§IV-A, §V).

Clients bridge the physical world and the VSA tracking structure:

* on a ``move`` input (evader entered the client's region) they send a
  ``grow`` to their level-0 cluster;
* on a ``left`` input they send a ``shrink``;
* on a ``find`` input (an external query for the evader's region) they
  send a ``find`` to their level-0 cluster;
* on receiving a ``found`` broadcast, a client whose last evader input
  indicated the evader is present performs the ``found`` output.

The grow/shrink messages carry the level-0 cluster itself as ``cid`` so
that the level-0 process ends up with the self-pointer ``c0.c = c0``
required of a tracking path terminus.

Multi-object service (DESIGN.md §9): every input carries an
``object_id`` (default 0 — the paper's single evader); presence is
tracked per object, and a ``found`` broadcast is answered only by a
client whose region currently hosts *that* object.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from ..geometry.regions import RegionId
from ..hierarchy.hierarchy import ClusterHierarchy
from ..vsa.client import Client
from .messages import Find, Found, Grow, Shrink, TrackerMessage

# found output observer: (find_id, region, client_id).
FoundObserver = Callable[[int, RegionId, int], None]


class TrackingClient(Client):
    """Client automaton running the VINESTALK client algorithm."""

    def __init__(self, node_id: int, hierarchy: ClusterHierarchy, cgcast) -> None:
        super().__init__(node_id, hierarchy, cgcast)
        self.evader_here = False  # lane-0 presence (legacy name)
        self._objects_here = set()  # extra object ids present here
        self.finds_issued = 0
        self.founds_output = 0
        # Static deployments pin a client to one region; a restarted
        # client immediately receives a fresh GPS fix for it (the GPS
        # tells every client its region on entering the system).
        self.home_region: Optional[RegionId] = None
        self._found_observers: List[FoundObserver] = []

    def reset_state(self) -> None:
        super().reset_state()
        self.evader_here = False
        if self._objects_here:
            self._objects_here.clear()

    def on_restarted(self) -> None:
        if self.home_region is not None:
            self.region = self.home_region

    def on_found(self, observer: FoundObserver) -> None:
        """Observe every ``found`` output this client performs."""
        self._found_observers.append(observer)

    def object_present(self, object_id: int) -> bool:
        """Whether ``object_id`` is currently in this client's region."""
        if object_id == 0:
            return self.evader_here
        objects = self._objects_here
        return bool(objects) and object_id in objects

    def _set_present(self, object_id: int, present: bool) -> None:
        if object_id == 0:
            self.evader_here = present
            return
        objects = self._objects_here
        if present:
            objects.add(object_id)
        else:
            objects.discard(object_id)

    # ------------------------------------------------------------------
    # Evader inputs from the augmented GPS (§III)
    # ------------------------------------------------------------------
    def input_move(self, region: RegionId, object_id: int = 0) -> None:
        """Tracked object ``object_id`` just arrived in this region."""
        if self.region is None or region != self.region:
            return  # stale notification (client moved away)
        self._set_present(object_id, True)
        self.ctob_send(Grow(cid=self.local_cluster(), object_id=object_id))

    def input_left(self, region: RegionId, object_id: int = 0) -> None:
        """Tracked object ``object_id`` just left this region."""
        if self.region is None or region != self.region:
            return
        self._set_present(object_id, False)
        self.ctob_send(Shrink(cid=self.local_cluster(), object_id=object_id))

    # ------------------------------------------------------------------
    # Find requests from the environment (§V)
    # ------------------------------------------------------------------
    def input_find(self, find_id: int, object_id: int = 0) -> None:
        """An external query: where is object ``object_id``?"""
        self.finds_issued += 1
        self.ctob_send(
            Find(cid=self.local_cluster(), find_id=find_id, object_id=object_id)
        )

    # ------------------------------------------------------------------
    # Found broadcasts from the local VSA
    # ------------------------------------------------------------------
    def on_message(self, message: TrackerMessage) -> None:
        if isinstance(message, Found) and self.object_present(
            getattr(message, "object_id", 0)
        ):
            self.founds_output += 1
            for observer in self._found_observers:
                observer(message.find_id, self.region, self.node_id)
