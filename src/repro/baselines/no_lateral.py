"""No-lateral-link tracker: the dithering-prone baseline (§IV-B).

STALK-style hierarchical tracking *without* VINESTALK's lateral links:
a grow always connects to the hierarchy parent, so an object moving back
and forth across a multi-level cluster boundary rebuilds the path up to
the level where the two positions share a cluster — work proportional to
that level's geometry instead of O(1).  Benchmark E4 contrasts the two.

Implementation: a :class:`Tracker` subclass whose grow ignores
``nbrptup`` (it still *maintains* secondary pointers so finds behave
identically); the ``"no-lateral"`` system builds around it.
"""

from __future__ import annotations

from ..core.messages import Grow, GrowPar
from ..core.tracker import Tracker
from ..core.vinestalk import VineStalk


class NoLateralTracker(Tracker):
    """Tracker variant that always grows to its hierarchy parent."""

    def output_grow_send(self, object_id: int = 0) -> None:
        """As Fig. 2's grow send, but with the lateral branch removed."""
        lane = self.lane(object_id)
        lane.timer.disarm()
        par = self.parent_cluster
        assert par is not None, "grow timer armed at MAX level"
        lane.p = par
        self._send(par, Grow(cid=self.clust, object_id=object_id))
        self._queue_to_nbrs(GrowPar(cid=self.clust, object_id=object_id))


class NoLateralVineStalk(VineStalk):
    """A VINESTALK system built from :class:`NoLateralTracker` processes."""

    tracker_cls = NoLateralTracker
