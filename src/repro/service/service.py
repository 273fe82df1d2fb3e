"""The tracking-service front-end (DESIGN.md §9).

:class:`TrackingService` admits one workload — anything satisfying the
:class:`~repro.workload.Workload` protocol — against a chosen engine:

* ``engine="plain"`` — the single-loop reference engine (the same
  construction the K=1 bit-identity golden pins);
* ``engine="sharded"`` — the conservative PDES driver at
  ``config.shards`` shards (serial or processes backend).

Both go through :func:`~repro.sim.sharded.core.run_script` on the *same*
materialized script, so a service run is seed-deterministic, its
canonical trace fingerprint K-invariant, and its result the one
:class:`~repro.sim.sharded.core.RunRecord` with the
:func:`~repro.service.metrics.service_metrics` block attached.

:func:`cross_check` is that K-invariance claim as a verdict — one script,
both engines, equal canonical fingerprints — and the only place it is
computed: the four cross-engine commands and the SVC experiment ask it.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import replace
from typing import Callable, ContextManager, Optional, Tuple

from ..sim.sharded.core import RunRecord, run_script
from ..workload import Workload, materialize
from .metrics import service_metrics

ENGINES = ("plain", "sharded")


class TrackingService:
    """Admit workloads against one scenario config and engine.

    Args:
        config: The :class:`~repro.scenario.ScenarioConfig`; its
            ``shards`` field fixes K for the sharded engine (the plain
            engine always runs the single world).
        engine: ``"plain"`` or ``"sharded"``.
        backend: Sharded engine only — ``"serial"`` or ``"processes"``.
    """

    def __init__(
        self, config, engine: str = "plain", backend: str = "serial"
    ) -> None:
        if engine not in ENGINES:
            raise ValueError(f"engine must be one of {ENGINES}")
        self.config = config
        self.engine = engine
        self.backend = backend

    def run(self, workload: Workload, seed: Optional[int] = None) -> RunRecord:
        """Materialize ``workload`` at ``seed`` and run it to quiescence.

        ``seed`` defaults to ``config.seed``.  The record comes back with
        its ``metrics`` block (:func:`service_metrics`) attached.
        """
        if seed is None:
            seed = self.config.seed
        backend = "plain" if self.engine == "plain" else self.backend
        return _run(self.config, materialize(workload, seed), backend)


def _run(config, script, backend: str) -> RunRecord:
    record = run_script(config, script, backend)
    return replace(
        record, metrics=service_metrics(record.finds, record.handovers)
    )


def cross_check(
    config,
    workload: Workload,
    seed: Optional[int] = None,
    backend: str = "serial",
    around: Callable[[str], ContextManager] = nullcontext,
) -> Tuple[RunRecord, RunRecord, bool]:
    """Whether ``workload`` runs the same on the plain and sharded engines.

    Materializes the script **once** (``seed`` defaults to
    ``config.seed``), runs it on the plain loop and on ``backend`` at
    ``config.shards`` shards, and returns ``(plain, sharded, match)``:
    both records with ``metrics`` attached, and the verdict — equal
    canonical fingerprints.  ``around(engine)`` wraps each run, so
    ``repro service --profile`` can observe the engines apart.
    """
    if seed is None:
        seed = config.seed
    script = materialize(workload, seed)
    with around("plain"):
        plain = _run(config, script, "plain")
    with around("sharded"):
        sharded = _run(config, script, backend)
    return plain, sharded, (
        plain.canonical_fingerprint == sharded.canonical_fingerprint
    )
