"""Generator workloads and the regime runner.

:class:`GeneratedWalk` adapts a generator spec (or preset name) to the
unified workload protocol (DESIGN.md §9): ``events(seed)`` generates
§VI-legal traces and exports them as the frozen action script both
engines consume, so any mobility regime runs bit-identically on the
plain reference engine and the K-sharded PDES engine.

:func:`run_mobility_regime` is the one-call E-series entry point behind
the ``repro mobility`` CLI subcommand: reference-run one regime,
cross-check the sharded engine when asked, and report trace statistics
alongside the §VI verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Union

from .limits import SpeedLimits, check_trace, touched_level
from .presets import preset
from .spec import GeneratorSpec
from .trace import generate, trace_workload


def resolve_spec(mobility: Union[str, GeneratorSpec]) -> GeneratorSpec:
    """Accept a preset name or an explicit spec tree."""
    if isinstance(mobility, str):
        return preset(mobility)
    if isinstance(mobility, GeneratorSpec):
        return mobility
    raise TypeError(
        f"mobility must be a preset name or GeneratorSpec, got {type(mobility).__name__}"
    )


@dataclass(frozen=True)
class GeneratedWalk:
    """A generator regime as a protocol workload (pure function of seed)."""

    r: int = 2
    max_level: int = 2
    mobility: Union[str, GeneratorSpec] = "uniform-walk"
    n_moves: int = 8
    n_finds: int = 4
    n_objects: int = 1
    delta: float = 1.0
    e: float = 0.5
    mode: str = "concurrent"

    def traces(self, seed: int = 0):
        from ...topo.cache import shared_grid_hierarchy

        hierarchy = shared_grid_hierarchy(self.r, self.max_level)
        spec = resolve_spec(self.mobility)
        return generate(
            spec,
            hierarchy,
            self.n_moves,
            seed=seed,
            n_objects=self.n_objects,
            delta=self.delta,
            e=self.e,
            mode=self.mode,
        )

    def events(self, seed: int = 0):
        from ...topo.cache import shared_grid_hierarchy

        hierarchy = shared_grid_hierarchy(self.r, self.max_level)
        script = trace_workload(
            self.traces(seed), n_finds=self.n_finds, hierarchy=hierarchy, seed=seed
        )
        return script.actions


@dataclass(frozen=True)
class MobilityRegimeResult:
    """One regime's trace statistics around its plain-engine run (E-series row).

    What the engine measured (events, work, finds, fingerprints) is read
    through to ``run``, the :class:`~repro.sim.sharded.core.RunRecord`.
    """

    regime: str
    r: int
    max_level: int
    seed: int
    n_objects: int
    n_moves: int
    steps_scripted: int
    min_dwell: float
    mean_dwell: float
    speed_ok: bool
    speed_violation: Optional[str]
    touched_levels: Dict[int, int]
    run: Any
    shards: int = 1
    sharded_fingerprint: Optional[str] = None
    fingerprint_match: Optional[bool] = None

    def __getattr__(self, name: str) -> Any:
        if name == "run" or name.startswith("__"):
            raise AttributeError(name)  # unpickling probes before ``run`` is set
        return getattr(self.run, name)

    def as_dict(self) -> Dict[str, Any]:
        """The JSON-safe E-series row ``repro mobility --json`` emits."""
        row = {
            name: getattr(self, name)
            for name in (
                "regime", "steps_scripted", "finds_completed", "finds_issued",
                "events", "messages_sent", "moves_observed", "move_work",
                "find_work", "min_dwell", "mean_dwell", "speed_ok",
                "speed_violation", "canonical_fingerprint",
                "sharded_fingerprint", "fingerprint_match",
            )
        }
        levels = sorted(self.touched_levels.items())
        row["touched_levels"] = {str(level): count for level, count in levels}
        row["objects"] = self.n_objects
        return row


def run_mobility_regime(
    regime: Union[str, GeneratorSpec] = "uniform-walk",
    r: int = 2,
    max_level: int = 2,
    seed: int = 11,
    n_moves: int = 8,
    n_finds: int = 4,
    n_objects: int = 1,
    shards: int = 0,
    mode: str = "concurrent",
) -> MobilityRegimeResult:
    """Run one mobility regime end to end on the reference engine.

    ``shards >= 1`` additionally runs the same frozen script on the
    K-sharded engine and records the cross-engine fingerprint verdict.
    """
    from ...scenario import ScenarioConfig
    from ...service.service import TrackingService, cross_check
    from ...topo.cache import shared_grid_hierarchy

    if shards < 0:
        raise ValueError(f"shards must be >= 0, got {shards}")
    spec = resolve_spec(regime)
    name = regime if isinstance(regime, str) else type(regime).__name__
    walk = GeneratedWalk(
        r=r,
        max_level=max_level,
        mobility=spec,
        n_moves=n_moves,
        n_finds=n_finds,
        n_objects=n_objects,
        mode=mode,
    )
    config = ScenarioConfig(
        r=r, max_level=max_level, delta=walk.delta, e=walk.e, seed=seed,
        shards=max(shards, 1),
    )
    sharded_fp = match = None
    if shards >= 1:
        run, sharded, match = cross_check(config, walk)
        sharded_fp = sharded.canonical_fingerprint
    else:
        run = TrackingService(config).run(walk)

    hierarchy = shared_grid_hierarchy(r, max_level)
    limits = SpeedLimits.for_hierarchy(hierarchy, delta=walk.delta, e=walk.e, mode=mode)
    traces = walk.traces(seed)
    dwells = [d for tr in traces for d in tr.dwells()]
    violation = None
    for tr in traces:
        violation = check_trace(tr, hierarchy, limits)
        if violation is not None:
            break
    levels: Dict[int, int] = {}
    for tr in traces:
        path = tr.regions
        for u, v in zip(path, path[1:]):
            level = touched_level(hierarchy, u, v)
            levels[level] = levels.get(level, 0) + 1

    return MobilityRegimeResult(
        regime=name,
        r=r,
        max_level=max_level,
        seed=seed,
        n_objects=len(traces),
        n_moves=n_moves,
        steps_scripted=sum(len(tr.steps) for tr in traces),
        min_dwell=min(dwells) if dwells else 0.0,
        mean_dwell=sum(dwells) / len(dwells) if dwells else 0.0,
        speed_ok=violation is None,
        speed_violation=violation,
        touched_levels=levels,
        run=run,
        shards=max(shards, 1),
        sharded_fingerprint=sharded_fp,
        fingerprint_match=match,
    )

