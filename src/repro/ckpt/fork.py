"""Fork semantics: one snapshot → N divergent continuations.

:func:`fork_scenario` restores a snapshot (a fresh, disjoint object
graph per call) and then forks the continuation's fault injector by the
fork index — its streams restart from seeds derived deterministically
from ``(root seed, fork path, stream name)`` (see
:meth:`repro.sim.rng.RngRegistry.fork`), and its message draws mix the
same path in.  The same snapshot forked
with the same index is therefore bit-identical every time, while
different indices draw provably different randomness from the first
post-fork draw on.

What forks: the fault injector's :class:`~repro.sim.rng.RngRegistry`
streams and its message draws.  Plain ``random.Random`` objects the
caller embedded (e.g. an evader's walk RNG) are the caller's to perturb
— they restore to their captured mid-sequence position in every fork,
which keeps a fork's divergence exactly scoped to the injector.
"""

from __future__ import annotations

from ..scenario import Scenario
from .snapshot import Snapshot, restore_scenario


def fork_scenario(snapshot: Snapshot, index: int) -> Scenario:
    """Restore ``snapshot`` as fork ``index`` of its continuation.

    The restored scenario's fault injector is forked by ``index``.
    Restoring N forks gives N fully independent object graphs; forks
    with equal indices replay identically, forks with different indices
    diverge at their first fault draw.
    """
    scenario = restore_scenario(snapshot)
    if scenario.injector is not None:
        scenario.injector.fork(index)
    return scenario
