"""Registry-named mobility regimes (the DSL's vocabulary).

A preset is a frozen :class:`~repro.mobility.gen.spec.GeneratorSpec`
tree under a stable name; ``GeneratedWalk(mobility="dither")`` and the
``repro mobility`` CLI resolve names here.
Presets avoid explicit region ids so every regime works on any grid
size — placement choices are sampled from the seeded stream when a
walk is built.
"""

from __future__ import annotations

from typing import Dict, Tuple

from .spec import (
    Compose,
    Convoy,
    Dither,
    GeneratorSpec,
    Hotspots,
    Obstacles,
    Switch,
    TimeSlice,
    Walk,
    WaypointGraph,
)

_PRESETS: Dict[str, GeneratorSpec] = {
    # -- single primitives ------------------------------------------------
    "uniform-walk": Walk(),
    "waypoint-patrol": WaypointGraph(k=4),
    "waypoint-slow-legs": WaypointGraph(
        k=3,
        edges=((0, 1), (1, 2), (2, 0)),
        speeds=(1.0, 2.0, 4.0),
    ),
    "obstacle-walk": Obstacles(inner=Walk(), density=0.15),
    "convoy-line": Convoy(leader=Walk(), followers=2, offset=1),
    "hotspot-churn": Hotspots(k=3, period=6),
    "dither": Dither(),
    # -- composed regimes -------------------------------------------------
    "convoy-patrol": Convoy(leader=WaypointGraph(k=3), followers=3, offset=2),
    "mixed-walk-dither": Compose(parts=(Walk(), Dither()), weights=(2.0, 1.0)),
    "commute": Switch(parts=(Hotspots(k=2, period=8), Walk()), every=5),
    "phased": TimeSlice(
        parts=(Walk(), Dither(), Hotspots(k=2, period=4)), boundaries=(4, 8)
    ),
    # The golden composed scenario: a convoy whose leader runs hotspot
    # churn inside an obstacle field (tests/mobility/test_gen_golden.py).
    "gauntlet": Convoy(
        leader=Obstacles(inner=Hotspots(k=2, period=5), density=0.12),
        followers=2,
        offset=1,
    ),
}


def preset(name: str) -> GeneratorSpec:
    """Look up a registered mobility regime by name."""
    try:
        return _PRESETS[name]
    except KeyError:
        raise KeyError(
            f"unknown mobility preset {name!r}; known: {', '.join(preset_names())}"
        ) from None


def preset_names() -> Tuple[str, ...]:
    """All registered regime names, sorted."""
    return tuple(sorted(_PRESETS))
