"""``repro.mobility.gen`` — composable trajectory generation.

The generator framework (DESIGN.md §10) describes mobility regimes as
small frozen combinator trees (:mod:`~repro.mobility.gen.spec`), each
of which walks itself (``spec.walk``), and emits seeded-deterministic,
§VI-speed-legal traces
(:mod:`~repro.mobility.gen.trace`) that export to the unified workload
protocol — so every regime runs bit-identically on the plain and
sharded engines.  Named regimes live in
:mod:`~repro.mobility.gen.presets`.
"""

from .limits import MODES, SpeedLimits, check_trace, touched_level
from .presets import preset, preset_names
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
    masked_tiling,
)
from .trace import (
    MobilityTrace,
    generate,
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
    "masked_tiling",
    # presets
    "preset",
    "preset_names",
    # §VI limits
    "MODES",
    "SpeedLimits",
    "check_trace",
    "touched_level",
    # traces
    "MobilityTrace",
    "generate",
    "trace_workload",
    # workloads / runner
    "GeneratedWalk",
    "MobilityRegimeResult",
    "resolve_spec",
    "run_mobility_regime",
]
