"""Client automata ``C_p`` (§II-C.1).

A client rides a physical node: it knows its region (the GPS fix its
builder gives it), may send to its region's level-0 VSA through
C-gcast, and is subject to stopping failures and restarts (restarting
from an initial state, per the model).  Algorithm-specific clients (the
VINESTALK tracking client) subclass this base.
"""

from __future__ import annotations

from typing import Any, Optional

from ..geometry.regions import RegionId
from ..hierarchy.cluster import ClusterId
from ..hierarchy.hierarchy import ClusterHierarchy
from ..tioa.automaton import TimedAutomaton


class Client(TimedAutomaton):
    """Base mobile client automaton.

    Args:
        node_id: Physical node id ``p``.
        hierarchy: The cluster hierarchy (to resolve ``clust(u, 0)``).
        cgcast: The C-gcast service used for ``cTOBsend``.
    """

    __slots__ = ("node_id", "hierarchy", "cgcast", "region")

    def __init__(self, node_id: int, hierarchy: ClusterHierarchy, cgcast) -> None:
        super().__init__(f"client:{node_id}")
        self.node_id = node_id
        self.hierarchy = hierarchy
        self.cgcast = cgcast
        self.region: Optional[RegionId] = None

    def reset_state(self) -> None:
        self.region = None

    # ------------------------------------------------------------------
    # Communication
    # ------------------------------------------------------------------
    def local_cluster(self) -> ClusterId:
        """``clust(u, 0)`` for the client's current region ``u``."""
        if self.region is None:
            raise RuntimeError(f"{self.name} has no GPS fix yet")
        return self.hierarchy.cluster(self.region, 0)

    def ctob_send(self, payload: Any, dest: Optional[ClusterId] = None) -> None:
        """``cTOBsend(m, clust)_p``: send to a level-0 cluster (default own)."""
        if self.region is None:
            raise RuntimeError(f"{self.name} has no GPS fix yet")
        if dest is None:
            dest = self.local_cluster()
        self.cgcast.send_from_client(self.region, dest, payload)

    def input_cTOBrcv(self, message: Any) -> None:
        """Receive a client-bound broadcast; dispatch to the algorithm hook."""
        self.on_message(message)

    def on_message(self, message: Any) -> None:
        """Hook for subclasses: a message arrived from the local VSA."""
