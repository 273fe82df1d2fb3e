"""Checkpoint/restore and deterministic replay (schema ``CKPT_SCHEMA``).

The subsystem in one paragraph: :func:`snapshot_scenario` — the one
way a world is captured — pickles a built scenario between two events
as a versioned :class:`Snapshot` whose payload references the
content-addressed topology cache instead of re-serializing route tables;
:func:`restore_scenario` (and the on-disk :func:`save`/:func:`load`
envelope) turns it back into a fresh continuation that resumes
bit-identically to the uninterrupted run; :func:`fork_scenario` spins N
deterministic divergent continuations off one snapshot; and
:func:`~repro.ckpt.bisect.bisect_divergence` localizes the first
diverging event between two run variants by scanning both live runs in
lockstep, with no checkpoint at all.

See ``DESIGN.md`` §7 for the guarantees and the format layout.
"""

from .bisect import DivergenceReport, Variant, bisect_divergence
from .codec import CkptCodecError, dumps_graph, loads_graph
from .fork import fork_scenario
from .snapshot import (
    CKPT_MAGIC,
    CKPT_SCHEMA,
    CkptCompatError,
    CkptFormatError,
    Snapshot,
    SnapshotMeta,
    load,
    restore_scenario,
    run_fingerprint,
    save,
    snapshot_scenario,
)
from .workload import (
    FIND_AT,
    MOVE_EVERY,
    build_tracked_walk,
    schedule_tracked_walk,
    walk_horizon,
)

__all__ = [
    "CKPT_MAGIC",
    "CKPT_SCHEMA",
    "CkptCodecError",
    "CkptCompatError",
    "CkptFormatError",
    "DivergenceReport",
    "FIND_AT",
    "MOVE_EVERY",
    "Snapshot",
    "SnapshotMeta",
    "Variant",
    "bisect_divergence",
    "build_tracked_walk",
    "dumps_graph",
    "fork_scenario",
    "load",
    "loads_graph",
    "restore_scenario",
    "run_fingerprint",
    "save",
    "schedule_tracked_walk",
    "snapshot_scenario",
    "walk_horizon",
]
