"""Checkpoint/restore and divergence bisection (schema ``CKPT_SCHEMA``).

The subsystem in one paragraph: :func:`snapshot_scenario` — the one
way a world is captured — records a built scenario's config, the
scripts scheduled on it and its cut (time, events fired, run
fingerprint) as a small JSON :class:`Snapshot`;
:func:`restore_scenario` (and the on-disk :func:`save`/:func:`load`
pair) rebuilds the world, replays it to the cut, checks the fingerprint
and returns a continuation that resumes bit-identically to the
uninterrupted run.  A file holding one script is also a *run file*:
:func:`read_run` returns its ``(config, script)`` to run from t=0, and
:func:`~repro.ckpt.bisect.bisect_divergence` localizes the first
diverging event between two such runs by scanning both live runs in
lockstep.

See ``DESIGN.md`` §7 for the guarantees and the format layout.
"""

from .bisect import DivergenceReport, bisect_divergence
from .snapshot import (
    CKPT_SCHEMA,
    CkptFormatError,
    Snapshot,
    SnapshotMeta,
    load,
    loads,
    read_run,
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
    "bisect_divergence",
    "load",
    "loads",
    "read_run",
    "restore_scenario",
    "run_fingerprint",
    "save",
    "snapshot_scenario",
]
