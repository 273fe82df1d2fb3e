"""Checkpoint/restore and divergence bisection (schema ``CKPT_SCHEMA``).

The subsystem in one paragraph: :func:`snapshot_scenario` — the one
way a world is captured — records a built scenario's config, the
scripts scheduled on it and its cut (time, events fired, run
fingerprint) as a small JSON :class:`Snapshot`;
:func:`restore_scenario` (and the on-disk :func:`save`/:func:`load`
pair) rebuilds the world, replays it to the cut, checks the fingerprint
and returns a continuation that resumes bit-identically to the
uninterrupted run; and :func:`~repro.ckpt.bisect.bisect_divergence`
localizes the first diverging event between two run variants by
scanning both live runs in lockstep, with no checkpoint at all.

See ``DESIGN.md`` §7 for the guarantees and the format layout.
"""

from .bisect import DivergenceReport, Variant, bisect_divergence
from .snapshot import (
    CKPT_SCHEMA,
    CkptFormatError,
    Snapshot,
    SnapshotMeta,
    load,
    restore_scenario,
    run_fingerprint,
    save,
    snapshot_scenario,
)

__all__ = [
    "CKPT_SCHEMA",
    "CkptFormatError",
    "DivergenceReport",
    "Snapshot",
    "SnapshotMeta",
    "Variant",
    "bisect_divergence",
    "load",
    "restore_scenario",
    "run_fingerprint",
    "save",
    "snapshot_scenario",
]
