"""The obs JSON artifact (schema ``obs/2``) and its human summary.

:func:`obs_payload` serializes a collector (plus an optional
conformance sampler) to a schema-versioned, JSON-safe dict;
:func:`write_obs_artifact` writes it;
:func:`render_obs_summary` renders the short human table the CLI prints
(:func:`render_obs_counts` is its tables, which the EXPERIMENTS.md
OBS section embeds).  The artifact holds no host time: per-layer
timing is the bench tracer's (``benchmarks/perf/run.py --trace 1``).
``benchmarks/check_obs_report.py`` validates the artifact.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

from .events import OBS_EVENT_SCHEMA, event_dict

#: Artifact schema tag.  Bump on any payload shape change.
OBS_SCHEMA = "obs/2"

#: Newest events inlined in the artifact (counts stay exact).
EVENT_SAMPLE_LIMIT = 50


def obs_payload(
    collector: Any,
    conformance: Optional[Any] = None,
    extra: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Serialize ``collector`` (and optionally a sampler) to ``obs/2``."""
    retained = list(collector.events)
    payload: Dict[str, Any] = {
        "schema": OBS_SCHEMA,
        "event_schema": OBS_EVENT_SCHEMA,
        "counters": {
            f"events.{kind}": n for kind, n in sorted(collector.counts.items())
        },
        "events": {
            "seen": collector.events_seen,
            "retained": len(retained),
            "dropped": collector.events_dropped,
            "by_kind": collector.events_by_kind(),
            "sample": [event_dict(e) for e in retained[-EVENT_SAMPLE_LIMIT:]],
        },
        "conformance": None if conformance is None else conformance.summary(),
    }
    if extra:
        payload.update(extra)
    return payload


def write_obs_artifact(path: str, payload: Dict[str, Any]) -> None:
    """Write the payload as stable (sorted-key) JSON."""
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def render_obs_counts(payload: Dict[str, Any]) -> List[str]:
    """The summary's run-invariant tables: event counts, then conformance."""
    from ..analysis.reporting import render_table

    event_rows = sorted(payload["events"]["by_kind"].items())
    tables = [
        render_table(["event kind", "count"], event_rows,
                     title=f"typed events ({payload['events']['seen']} total)"),
    ]
    conformance = payload.get("conformance")
    if conformance is not None:
        verdict_rows = [
            (check, "VIOLATED" if violated else "ok",
             conformance["checks_run"].get(check, 0))
            for check, violated in sorted(conformance["verdicts"].items())
        ]
        tables.append(render_table(
            ["check", "verdict", "samples"], verdict_rows,
            title=(f"conformance (stride {conformance['stride']}, "
                   f"{conformance['violations_total']} violations)"),
        ))
    return tables


def render_obs_summary(payload: Dict[str, Any]) -> str:
    """Short human-readable summary of an ``obs/2`` payload."""
    return "\n\n".join([
        f"obs artifact (schema {payload['schema']}, "
        f"event schema v{payload['event_schema']})",
        *render_obs_counts(payload),
    ])
