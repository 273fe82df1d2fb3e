"""High-level sharded runs: the scripted walk, its reference path, sweeps.

:func:`walk_scenario` builds the scripted walk (config at K shards plus
frozen script) that ``repro sharded`` cross-checks; :func:`run_sharded_walk`
is the one-call entry point of tests and the SweepRunner registry
(``job("sharded_walk", ...)``): run that walk at K shards through
:func:`~repro.sim.sharded.core.run_script`, return its
:class:`~repro.sim.sharded.core.RunRecord`.

:func:`run_reference_walk` runs the *same* workload on the plain
single-loop :class:`~repro.sim.engine.Simulator` (no windows, no
barrier logic) — the K=1 bit-identity golden compares its exact
fingerprint against the sharded K=1 run.
"""

from __future__ import annotations

from ...faults.plan import default_plan
from .core import RunRecord, _tiling_for, run_script
from .workload import make_walk_workload


def walk_scenario(
    r: int = 2,
    max_level: int = 3,
    shards: int = 2,
    n_moves: int = 8,
    n_finds: int = 4,
    seed: int = 11,
    delta: float = 1.0,
    e: float = 0.5,
    dwell: float = 40.0,
    loss_rate: float = 0.0,
    duplication_rate: float = 0.0,
    jitter_rate: float = 0.0,
):
    """The scripted walk as ``(config at K shards, its frozen script)``."""
    from ...scenario import ScenarioConfig

    plan = default_plan(
        loss_rate=loss_rate, duplication_rate=duplication_rate,
        jitter_rate=jitter_rate, jitter_max=0.5,
    )
    config = ScenarioConfig(
        r=r,
        max_level=max_level,
        delta=delta,
        e=e,
        seed=seed,
        shards=shards,
        # No injector for a null plan: the record's fault_events stay None.
        fault_plan=None if plan.is_null() else plan,
    )
    workload = make_walk_workload(
        _tiling_for(config), n_moves, n_finds, seed, dwell=dwell
    )
    return config, workload


def run_sharded_walk(
    r: int = 2,
    max_level: int = 3,
    shards: int = 2,
    n_moves: int = 8,
    n_finds: int = 4,
    seed: int = 11,
    delta: float = 1.0,
    e: float = 0.5,
    dwell: float = 40.0,
    backend: str = "serial",
    loss_rate: float = 0.0,
    duplication_rate: float = 0.0,
    jitter_rate: float = 0.0,
) -> RunRecord:
    """Run the scripted walk workload at ``shards`` shards."""
    config, workload = walk_scenario(
        r, max_level, shards, n_moves, n_finds, seed, delta, e, dwell,
        loss_rate, duplication_rate, jitter_rate,
    )
    return run_script(config, workload, backend)


def run_reference_walk(
    r: int = 2,
    max_level: int = 3,
    n_moves: int = 8,
    n_finds: int = 4,
    seed: int = 11,
    delta: float = 1.0,
    e: float = 0.5,
    dwell: float = 40.0,
    loss_rate: float = 0.0,
    duplication_rate: float = 0.0,
    jitter_rate: float = 0.0,
) -> RunRecord:
    """The same workload on the plain single-loop engine (no windows)."""
    return run_sharded_walk(
        r=r, max_level=max_level, shards=1, n_moves=n_moves, n_finds=n_finds,
        seed=seed, delta=delta, e=e, dwell=dwell, backend="plain",
        loss_rate=loss_rate, duplication_rate=duplication_rate,
        jitter_rate=jitter_rate,
    )
