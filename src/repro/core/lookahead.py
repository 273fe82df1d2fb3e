"""The ``lookAhead`` function (Fig. 3).

``lookAhead`` maps a mid-execution system state to its "future state":
the state reached once all outstanding grow-related updates are applied,
followed by the shrink-related ones.  Theorem 4.8 states that after any
execution with move sequence ``{c_0, …, c_x}``,
``lookAhead(state) = atomicMoveSeq({c_0, …, c_x})`` — the property our
model-equivalence tests and benchmark E5 check continuously.

The translation follows Fig. 3 line by line, with two operational
clarifications (DESIGN.md):

* the grow-propagation seed is the process with ``c ≠ ⊥ ∧ p = ⊥`` *below
  MAX* (the root always matches the raw predicate);
* message application consumes the snapshot's transit list in send
  order, which is how the figure's "for each … in transit" is realised
  deterministically.
"""

from __future__ import annotations

from ..hierarchy.hierarchy import ClusterHierarchy
from .messages import Grow, GrowNbr, GrowPar, Shrink, ShrinkUpd
from .state import SystemSnapshot


class LookAheadError(RuntimeError):
    """The state violates a Fig. 3 single-update assumption in strict mode."""


def look_ahead(
    snapshot: SystemSnapshot,
    hierarchy: ClusterHierarchy,
    strict: bool = True,
) -> SystemSnapshot:
    """Fig. 3 on a snapshot; returns a new snapshot, input unchanged.

    Args:
        snapshot: State to project forward.
        hierarchy: The cluster hierarchy.
        strict: Enforce the atomic-case invariants (at most one pending
            grow and one pending shrink, Lemma 4.1); with ``strict=False``
            multiple pending updates are processed in deterministic
            (sorted) order — used for exploratory concurrent-state checks.
    """
    state = snapshot.copy()
    ptr = state.pointers
    max_level = hierarchy.max_level

    # --- apply grow-family messages in transit -------------------------
    for msg in state.messages_of_kind(GrowNbr):
        ptr[msg.dest].nbrptdown = msg.payload.cid
    for msg in state.messages_of_kind(GrowPar):
        ptr[msg.dest].nbrptup = msg.payload.cid
    for msg in state.messages_of_kind(Grow):
        ptr[msg.dest].c = msg.payload.cid

    # --- propagate the pending grow ------------------------------------
    seeds = sorted(
        cid
        for cid, ps in ptr.items()
        if ps.c is not None and ps.p is None and cid.level != max_level
    )
    if strict and len(seeds) > 1:
        raise LookAheadError(f"multiple pending grows: {seeds}")
    for clust in seeds:
        while ptr[clust].p is None and clust.level != max_level:
            if ptr[clust].nbrptup is not None:
                ptr[clust].p = ptr[clust].nbrptup
                for nbr in hierarchy.nbrs(clust):
                    ptr[nbr].nbrptdown = clust
            else:
                ptr[clust].p = hierarchy.parent(clust)
                for nbr in hierarchy.nbrs(clust):
                    ptr[nbr].nbrptup = clust
            parent = ptr[clust].p
            ptr[parent].c = clust
            clust = parent

    # --- apply shrink-family messages in transit ------------------------
    for msg in state.messages_of_kind(ShrinkUpd):
        if ptr[msg.dest].nbrptup == msg.payload.cid:
            ptr[msg.dest].nbrptup = None
        if ptr[msg.dest].nbrptdown == msg.payload.cid:
            ptr[msg.dest].nbrptdown = None
    for msg in state.messages_of_kind(Shrink):
        if ptr[msg.dest].c == msg.payload.cid:
            ptr[msg.dest].c = None

    # --- propagate the pending shrink -----------------------------------
    shrink_seeds = sorted(
        cid for cid, ps in ptr.items() if ps.c is None and ps.p is not None
    )
    if strict and len(shrink_seeds) > 1:
        raise LookAheadError(f"multiple pending shrinks: {shrink_seeds}")
    for clust in shrink_seeds:
        if ptr[clust].c is not None:  # repaired by an earlier propagation
            continue
        while ptr[clust].p is not None and clust.level != max_level:
            for nbr in hierarchy.nbrs(clust):
                if ptr[nbr].nbrptup == clust:
                    ptr[nbr].nbrptup = None
                if ptr[nbr].nbrptdown == clust:
                    ptr[nbr].nbrptdown = None
            parent = ptr[clust].p
            if ptr[parent].c == clust:
                ptr[clust].p = None
                ptr[parent].c = None
                clust = parent
            else:
                ptr[clust].p = None

    state.in_transit = [
        m
        for m in state.in_transit
        if not isinstance(m.payload, (Grow, GrowNbr, GrowPar, Shrink, ShrinkUpd))
    ]
    return state
