"""``repro.mobility.gen`` — composable trajectory generation.

The generator framework (DESIGN.md §10) describes mobility regimes as
small frozen combinator trees (:mod:`~repro.mobility.gen.spec`),
resolves them into :class:`~repro.mobility.models.MobilityModel`
instances the existing :class:`~repro.mobility.evader.Evader` consumes
unchanged, and emits seeded-deterministic, §VI-speed-legal traces
(:mod:`~repro.mobility.gen.trace`) that export to the unified workload
protocol — so every regime runs bit-identically on the plain and
sharded engines.  Named regimes live in
:mod:`~repro.mobility.gen.presets`.
"""

from .limits import MODES, SpeedLimits, check_trace, touched_level
from .models import GeneratedModel, MobilityContractError, masked_tiling
from .presets import preset, preset_names, register_preset
from .spec import (
    COMBINATORS,
    PRIMITIVES,
    Compose,
    Convoy,
    Dither,
    GeneratorSpec,
    Hotspots,
    Obstacles,
    Replay,
    Switch,
    TimeSlice,
    Walk,
    WaypointGraph,
)
from .trace import (
    MobilityTrace,
    TraceRecorder,
    generate,
    trace_from_obs,
    trace_workload,
)
from .workload import (
    GeneratedWalk,
    MobilityRegimeResult,
    resolve_spec,
    run_mobility_regime,
)

__all__ = [
    # spec / DSL
    "GeneratorSpec",
    "Walk",
    "WaypointGraph",
    "Obstacles",
    "Convoy",
    "Hotspots",
    "Dither",
    "Replay",
    "Compose",
    "Switch",
    "TimeSlice",
    "PRIMITIVES",
    "COMBINATORS",
    # presets
    "preset",
    "preset_names",
    "register_preset",
    # §VI limits
    "MODES",
    "SpeedLimits",
    "check_trace",
    "touched_level",
    # traces
    "MobilityTrace",
    "TraceRecorder",
    "generate",
    "trace_from_obs",
    "trace_workload",
    # models
    "GeneratedModel",
    "MobilityContractError",
    "masked_tiling",
    # workloads / runner
    "GeneratedWalk",
    "MobilityRegimeResult",
    "resolve_spec",
    "run_mobility_regime",
]
