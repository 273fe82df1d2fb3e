"""Validate an OBS.json artifact (obs/1) from ``repro report --obs``.

CI's smoke-cli job runs this after generating the artifact; exits
nonzero when the artifact is malformed or the default scenario's
conformance verdicts are dirty.

Checks:

* schema is ``obs/1`` with a positive typed-event schema version;
* the phase breakdown contains the canonical phases (``build``,
  ``events``, ``geocast``, ``lookahead``) with positive self time;
* spans were recorded, and every inlined span record is internally
  consistent (``self_s <= duration_s``);
* typed-event bookkeeping is consistent: per-kind counts sum to the
  total seen, ``dropped + retained == seen`` (eviction accounting),
  the retained sample is bounded by it, and the tracking hot path
  actually emitted (``grow-sent`` present);
* **conformance gate**: every Lemma 4.1/4.2 / Theorem 4.8 check ran at
  least once and reported zero violations (the probe scenario is
  fault-free and atomic, so any violation is a real regression).
  ``--allow-violations`` downgrades that gate for artifacts generated
  from fault runs.

Usage::

    python benchmarks/check_obs_report.py [OBS.json] [--allow-violations]
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

REQUIRED_PHASES = ("build", "events", "geocast", "lookahead")


def check(path: Path, allow_violations: bool = False) -> int:
    payload = json.loads(path.read_text())
    problems = []

    if payload.get("schema") != "obs/1":
        problems.append(f"schema {payload.get('schema')!r} != 'obs/1'")
    if not isinstance(payload.get("event_schema"), int) or payload["event_schema"] < 1:
        problems.append(f"event_schema {payload.get('event_schema')!r} must be >= 1")

    phases = payload.get("phases", {})
    for phase in REQUIRED_PHASES:
        if phases.get(phase, 0.0) <= 0.0:
            problems.append(f"phase {phase!r} missing or has no self time")

    spans = payload.get("spans", {})
    if spans.get("count", 0) <= 0:
        problems.append("no spans recorded")
    for record in spans.get("records", []):
        if record.get("self_s", 0.0) > record.get("duration_s", 0.0) + 1e-9:
            problems.append(
                f"span {record.get('name')!r}: self {record['self_s']} "
                f"exceeds duration {record['duration_s']}"
            )

    events = payload.get("events", {})
    seen = events.get("seen", 0)
    by_kind = events.get("by_kind", {})
    if seen <= 0:
        problems.append("no typed events recorded")
    if sum(by_kind.values()) != seen:
        problems.append(
            f"per-kind counts sum to {sum(by_kind.values())}, not seen={seen}"
        )
    if events.get("retained", 0) > seen:
        problems.append("retained events exceed events seen")
    dropped = events.get("dropped")
    if not isinstance(dropped, int) or dropped < 0:
        problems.append(f"events.dropped {dropped!r} must be an int >= 0")
    elif dropped + events.get("retained", 0) != seen:
        problems.append(
            f"dropped ({dropped}) + retained ({events.get('retained', 0)}) "
            f"!= seen ({seen}) — eviction bookkeeping is off"
        )
    if by_kind.get("grow-sent", 0) <= 0:
        problems.append("tracker hot path emitted no grow-sent events")

    conformance = payload.get("conformance")
    if conformance is None:
        problems.append("conformance summary missing")
    else:
        for check_name, runs in conformance.get("checks_run", {}).items():
            if runs <= 0:
                problems.append(f"conformance check {check_name!r} never ran")
        violations = conformance.get("violations_total", -1)
        if violations < 0:
            problems.append("conformance violations_total missing")
        elif violations > 0 and not allow_violations:
            recorded = conformance.get("recorded", [])
            first = recorded[0] if recorded else {}
            problems.append(
                f"conformance gate: {violations} violations "
                f"(first: {first.get('check')} at t={first.get('time')}: "
                f"{first.get('detail')})"
            )

    if problems:
        for problem in problems:
            print(f"FAIL: {problem}", file=sys.stderr)
        return 1
    conf = payload["conformance"] or {}
    print(
        f"obs ok: {seen} typed events, phases "
        f"{{{', '.join(f'{p}={phases[p]:.3f}s' for p in REQUIRED_PHASES)}}}, "
        f"conformance {conf.get('violations_total', 0)} violations over "
        f"{sum(conf.get('checks_run', {}).values())} checks"
    )
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    allow = "--allow-violations" in argv
    paths = [a for a in argv if not a.startswith("--")]
    path = Path(paths[0]) if paths else Path("OBS.json")
    return check(path, allow_violations=allow)


if __name__ == "__main__":
    raise SystemExit(main())
