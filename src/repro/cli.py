"""Command-line interface: ``python -m repro <command> [--json]``.

:data:`COMMANDS` is the whole surface, one :class:`Command` row per
subcommand (``python -m repro --help`` prints them).  :func:`main` is the
only place that parses, checks every flag against its :class:`Domain`,
runs the command and prints the result.  ``run`` describes a result
once, as a dict; it goes out as the one schema-versioned envelope
``{"schema": "repro-cli/1", "command": <name>, "data": {...}}`` under
``--json``, which every command takes, or else as ``text(view)`` — the
same dict laid over the parsed flags it answers (``_``-prefixed keys are
for ``text`` only and stay out of the envelope).  Rejected input — a
value outside its flag's domain, or a typed refusal from deeper down —
exits 2 with one stderr line, or the envelope with ``data.error``.
Progress and written files are noted on stderr in either mode.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .ckpt import (
    CKPT_SCHEMA,
    CkptFormatError,
    bisect_divergence,
    load,
    read_run,
    restore_scenario,
    run_fingerprint,
    save,
    snapshot_scenario,
)

#: Envelope schema for all ``--json`` output.
CLI_SCHEMA = "repro-cli/1"


@dataclass(frozen=True)
class Domain:
    """A flag's legal values: how argparse reads one, what ``main`` checks.

    ``type`` converts the raw string (``None``: an on/off switch); ``ok``
    says whether a parsed value is legal and ``says`` words the refusal;
    ``choices`` is a closed set argparse itself enforces.
    """

    type: Optional[Callable[[str], Any]] = None
    ok: Optional[Callable[[Any], bool]] = None
    says: str = ""
    choices: Optional[Tuple[str, ...]] = None


def _at_least(floor: int) -> Domain:
    return Domain(int, lambda value: value >= floor, f"must be >= {floor}")


COUNT, POSITIVE = _at_least(0), _at_least(1)
PROBABILITY = Domain(float, lambda value: 0.0 <= value <= 1.0, "must be in [0, 1]")
#: A sim time or a length of sim time (0 is the initial instant).
TIME = Domain(float, lambda value: math.isfinite(value) and value >= 0.0,
              "must be >= 0 and finite")
RATE = Domain(float, lambda value: math.isfinite(value) and value > 0.0,
              "must be > 0 and finite")
INT, TEXT, SWITCH = Domain(int), Domain(str), Domain()
#: A comma-list of names :func:`_selection` looks up under the flag's name.
SELECTION = Domain(str, says="must name registered entries")


@dataclass(frozen=True)
class Flag:
    """One option (``--name``) or positional (bare ``name``) of a command."""

    name: str
    domain: Domain
    default: Any = None
    help: Optional[str] = None
    #: The config field the flag sets, where its own name is not that:
    #: names the parsed attribute and, in a refusal, the value at fault.
    dest: Optional[str] = None

    @property
    def key(self) -> str:
        return self.dest or self.name.lstrip("-").replace("-", "_")


JSON = Flag("--json", SWITCH,
            help='emit one {"schema": "repro-cli/1", ...} JSON envelope')


@dataclass(frozen=True)
class Command:
    """One subcommand: what it takes, how it runs, how its result reads.

    ``world`` holds the ``(r, max_level, seed)`` defaults of a command that
    builds a world from flags (one that reads a run file has none);
    ``run(args)`` returns ``(data, exit_code)`` and ``text(view)`` the
    stdout text (``None``: nothing for stdout).
    """

    name: str
    help: str
    world: Optional[Tuple[int, int, Optional[int]]]
    run: Callable[[argparse.Namespace], Tuple[Dict[str, Any], int]]
    text: Callable[[Dict[str, Any]], Optional[str]]
    flags: Tuple[Flag, ...]

    def all_flags(self) -> Tuple[Flag, ...]:
        """World-shape flags, ``--json``, then the command's own."""
        if self.world is None:
            return (JSON, *self.flags)
        r, max_level, seed = self.world
        return (
            Flag("--r", _at_least(2), r, "grid base"),
            Flag("--max-level", POSITIVE, max_level, "hierarchy MAX"),
            Flag("--seed", INT, seed, "root RNG seed"),
            JSON, *self.flags,
        )


def _note(message: str) -> None:
    print(message, file=sys.stderr)


def _write(path: str, text: str) -> None:
    with open(path, "w") as handle:
        handle.write(text)
    _note(f"wrote {path}")


def _pick(source: Any, *names: str) -> Dict[str, Any]:
    """Project the named attributes of ``source`` into result fields."""
    return {name: getattr(source, name) for name in names}


def _region(cell: Optional[Sequence[int]]) -> Optional[tuple]:
    """A region as the library prints it (results carry it as a list)."""
    return None if cell is None else tuple(cell)


def _verdict(match: Optional[bool]) -> str:
    if match is None:
        return "nothing compared"
    return "MATCH" if match else "DIVERGED"


def _demo(args):
    from .analysis.experiments import _settled_walker, _walk
    from .analysis.render import render_grid_world, render_path, render_pointer_stats
    from .scenario import ScenarioConfig, build

    scenario = build(ScenarioConfig(**_pick(args, "r", "max_level", "seed")))
    system, accountant = scenario.parts()
    hierarchy, tiling = scenario.hierarchy, scenario.hierarchy.tiling
    rng = random.Random(args.seed)
    evader = _settled_walker(system, rng)
    _walk(system, evader, args.moves)
    finds = []
    snapshot = system.snapshot()
    for _ in range(args.finds):
        origin = rng.choice(tiling.regions())
        find_id = system.issue_find(origin)
        system.run_to_quiescence()
        finds.append({
            "origin": list(origin),
            "distance": tiling.distance(origin, evader.region),
            **_pick(system.finds.records[find_id], "work", "latency"),
        })
    return {
        **_pick(args, "r", "max_level", "seed", "moves"),
        **_pick(tiling, "width", "height"),
        "evader_region": list(evader.region),
        "move_work": accountant.move_work,
        "finds": finds,
        "_art": "\n".join([
            render_grid_world(hierarchy, snapshot, evader.region),
            render_path(hierarchy, snapshot),
            render_pointer_stats(snapshot),
        ]),
    }, 0


def _demo_text(v):
    return "\n".join([
        "world {width}x{height} (r={r}, MAX={max_level}), {moves} moves, "
        "evader at {at}\n{_art}\nmove work: {move_work:.0f} ({each:.1f} per move)"
        .format_map({**v, "at": _region(v["evader_region"]),
                     "each": v["move_work"] / max(1, v["moves"])}),
        *(
            f"find from {_region(find['origin'])} (d={find['distance']}): "
            f"work {find['work']:.0f}, latency {find['latency']:.1f}"
            for find in v["finds"]
        ),
    ])


def _find(args):
    from .analysis.experiments import mean_find_work_by_distance, run_find_sweep

    diameter = args.r**args.max_level - 1
    distances = sorted({1, 2, 3, 4, max(1, diameter // 4), max(1, diameter // 2)})
    results = run_find_sweep(
        args.r, args.max_level, distances, seed=args.seed, finds_per_distance=4
    )
    sweep = [
        {"distance": d, "mean_find_work": w}
        for d, w in mean_find_work_by_distance(results)
    ]
    return {**_pick(args, "r", "max_level", "seed"), "sweep": sweep}, 0


def _find_text(v):
    from .analysis.reporting import render_table

    return render_table(
        ["d", "mean find work"],
        [(row["distance"], row["mean_find_work"]) for row in v["sweep"]],
        title=f"find cost by distance (r={v['r']}, MAX={v['max_level']})",
    )


def _chaos(args):
    from .analysis.recovery import run_chaos

    result = run_chaos(
        **_pick(args, "r", "max_level", "seed", "system", "duration"),
        loss_rate=args.loss, crash_rate=args.crash,
    )
    return _pick(
        result, "system", "loss_rate", "crash_rate", "seed", "moves",
        "finds_issued", "finds_completed", "find_success_rate",
        "find_retries", "recovered", "reconsistency_time", "work_overhead",
        "fault_events",
    ), 0


def _chaos_text(v):
    events = ", ".join(f"{k}={n}" for k, n in v["fault_events"].items() if n)
    recovered = "NO (structure still inconsistent at wait budget)"
    if v["recovered"]:
        recovered = ("yes (time to reconsistency {reconsistency_time:.1f} "
                     "after fault horizon)")
    return (
        "chaos: system={system} r={r} MAX={max_level} seed={seed} "
        "loss={loss_rate} crash={crash_rate} duration={duration:.0f}\n"
        "fault events: {events}\n"
        "moves: {moves}\n"
        "finds: {finds_completed}/{finds_issued} completed "
        "(success rate {find_success_rate:.2f}, {find_retries} retries)\n"
        f"recovered: {recovered}\n"
        "work overhead vs golden run: {work_overhead:.2f}x"
    ).format_map({**v, "events": events or "none"})


def _report(args):
    if args.obs:
        from .obs.export import write_obs_artifact
        from .obs.probe import run_obs_probe

        payload = run_obs_probe(stride=args.obs_stride)
        if args.out:
            write_obs_artifact(args.out, payload)
            _note(f"wrote {args.out}")
        return {"out": args.out, "obs": payload}, 0
    from .analysis.reporting import build_report

    text, failed = build_report(progress=lambda name: _note(f"running {name} ..."))
    data = {"out": args.out, "length": len(text), "failed": failed}
    if args.out:
        _write(args.out, text)
    else:
        data["report"] = text
    for key, statement in failed:
        _note(f"FAILED {key}: {statement}")
    return data, 1 if failed else 0


def _report_text(v):
    if not v["obs"]:  # the unset flag: no payload laid over it
        return v.get("report")  # absent: --out took the text
    from .obs.export import render_obs_summary

    summary = render_obs_summary(v["obs"])
    if v["out"]:
        return summary
    _note(summary)
    return json.dumps(v["obs"], indent=2, sort_keys=True)


def _validate(args):
    from .hierarchy.validation import HierarchyValidationError, validate_hierarchy
    from .topo import shared_grid_hierarchy, shared_strip_hierarchy

    shared = shared_strip_hierarchy if args.strip else shared_grid_hierarchy
    hierarchy = shared(args.r, args.max_level)
    error: Optional[str] = None
    try:
        validate_hierarchy(hierarchy, proximity=not args.skip_proximity)
    except HierarchyValidationError as exc:
        error = str(exc)
    return {
        "kind": "strip" if args.strip else "grid",
        **_pick(args, "r", "max_level"),
        "regions": len(hierarchy.tiling.regions()),
        "diameter": hierarchy.tiling.diameter(),
        "valid": error is None,
        "error": error,
    }, 0 if error is None else 1


def _validate_text(v):
    if not v["valid"]:
        return f"INVALID: {v['error']}"
    return (
        "{kind} hierarchy r={r} MAX={max_level} ({regions} regions, "
        "D={diameter}): all §II-B requirements hold"
    ).format_map(v)


def _snapshot(args):
    from .scenario import build
    from .sim.sharded import walk_scenario
    from .workload import schedule_workload

    config, script = walk_scenario(
        **_pick(args, "r", "max_level", "seed"), shards=1,
        n_moves=args.moves, n_finds=args.finds,
        loss_rate=args.loss, jitter_rate=args.jitter,
    )
    scenario = build(config)
    schedule_workload(scenario.system, script)
    scenario.sim.run_until(args.at)
    snapshot = snapshot_scenario(scenario, note=f"walk moves={args.moves}")
    save(snapshot, args.out)
    return {
        "out": args.out,
        **_pick(snapshot.meta, "schema", "sim_time", "events_fired"),
        "payload_bytes": len(snapshot.payload),
    }, 0


def _snapshot_text(v):
    return (
        "wrote {out}: schema {schema}, t={sim_time:g}, {events_fired} events "
        "fired, {payload_bytes} payload bytes"
    ).format_map(v)


def _resume(args):
    snapshot = load(args.path)
    cut, until = snapshot.meta.sim_time, args.until
    if until is not None and until < cut:
        raise ValueError(f"until {until:g} is before the snapshot's t={cut:g}")
    scenario = restore_scenario(snapshot)
    if until is None:  # to quiescence, as run_script runs a script
        if not scenario.system.quiesces:
            raise ValueError(f"{args.path}: this system never quiesces; give --until")
        scenario.sim.run()
    else:
        scenario.sim.run_until(until)
    fp = run_fingerprint(scenario)
    system = scenario.system
    evader = system.evader
    return {
        "resumed_from_t": cut,
        "ran_until": fp[0] if until is None else until,
        **dict(zip(("sim_time", "events_fired", "sends", "send_crc"), fp)),
        "evader_region": None if evader is None else list(evader.region),
        "finds_completed": sum(1 for r in system.finds.records.values() if r.completed),
    }, 0


def _resume_text(v):
    return (
        "resumed {path} from t={resumed_from_t:g} to t={sim_time:g}: "
        "{events_fired} events fired, {sends} sends "
        "(crc {send_crc:#010x}), evader at {at}"
    ).format_map({**v, "at": _region(v["evader_region"])})


def _bisect(args):
    report = bisect_divergence(read_run(args.a), read_run(args.b), obs_b=args.obs)
    run_b = f"{args.b} (obs on)" if args.obs else args.b
    return {"run_a": args.a, "run_b": run_b, **report.as_dict()}, 0


def _bisect_text(v):
    lines = ["bisect [{run_a}] vs [{run_b}]: {note}".format_map(v)]
    for side in ("A", "B") if v["diverged"] else ():
        info = v[f"event_{side.lower()}"]
        if info is None:
            lines.append(f"  side {side}: (no event — side had already drained)")
            continue
        sends = info["send_lines"]
        lines.append(f"  side {side}: event {info['tag']} at t={info['time']:g}, "
                     f"{len(sends)} sends")
        lines += [f"    {line}" for line in sends[:4]]
    return "\n".join(lines)


def _sharded(args):
    from .service import cross_check

    config, script = read_run(args.path)
    reference, sharded, match = cross_check(
        config.with_(shards=args.shards), script, backend=args.backend
    )
    exact = sharded.exact_fingerprint  # a K=1 run has one dispatch order
    return {
        **_pick(
            sharded, "shards", "backend", "events", "windows",
            "cross_shard_messages", "messages_sent", "finds_issued",
            "finds_completed", "canonical_fingerprint", "wall_s",
            "barrier_wait_s", "fault_events",
        ),
        "reference_fingerprint": reference.canonical_fingerprint,
        "fingerprint_match": match,
        "bit_identical": exact is not None and exact == reference.exact_fingerprint,
        "_reference_wall_s": reference.wall_s,
    }, 0 if match else 1


def _sharded_text(v):
    return (
        "sharded: {path} at K={shards} backend={backend}\n"
        "events: {events} over {windows} windows, {cross_shard_messages} "
        "cross-shard messages, finds {finds_completed}/{finds_issued} completed\n"
        "fingerprint: {canonical_fingerprint} (reference "
        "{reference_fingerprint}) -> {verdict}{exact}\n"
        "wall {wall_s:.3f}s (reference {_reference_wall_s:.3f}s), "
        "barrier wait {barrier_wait_s:.3f}s"
    ).format_map({
        **v, "verdict": _verdict(v["fingerprint_match"]),
        "exact": ", bit-identical at K=1" if v["bit_identical"] else "",
    })


def _service(args):
    from .scenario import ScenarioConfig
    from .service import LoadGenerator, cross_check
    from .sim.sharded.core import _tiling_for

    sizes = _pick(args, "n_objects", "find_clients")
    config = ScenarioConfig(**_pick(args, "r", "max_level", "seed", "shards"), **sizes)
    load = LoadGenerator(
        tiling=_tiling_for(config), n_finds=args.finds, **sizes,
        **_pick(args, "arrival", "rate", "moves_per_object", "deadline"),
    )
    plain, sharded, match = cross_check(config, load)
    shared = ("canonical_fingerprint", "events", "messages_sent", "metrics")
    return {
        "objects": args.n_objects,
        "clients": args.find_clients,
        **_pick(args, "finds", "arrival"),
        "shards": sharded.shards,
        "plain": _pick(plain, *shared),
        "sharded": _pick(sharded, *shared, "windows", "cross_shard_messages"),
        "fingerprint_match": match,
    }, 0 if match else 1


def _service_text(v):
    metrics = v["sharded"]["metrics"]
    lines = [
        "service: M={objects} finds={finds} clients={clients} arrival={arrival} "
        "r={r} MAX={max_level} seed={seed} K={shards}".format_map(v),
        "finds: {finds_completed}/{finds_issued} completed (rate "
        "{completion_rate:.2f}), deadline misses "
        "{deadlines_missed}/{deadlines_set}".format_map(metrics),
    ]
    if metrics["latency"]["p50"] is not None:
        lines.append(
            "latency: p50={p50:.1f} p95={p95:.1f} p99={p99:.1f} "
            "jitter={jitter:.2f}".format_map(metrics["latency"])
        )
    lines += [
        "throughput: {throughput_per_time:.3f} finds/time, "
        "handovers {handovers_total}".format_map(metrics),
        f"fingerprint: plain {v['plain']['canonical_fingerprint']} vs "
        f"K={v['shards']} {v['sharded']['canonical_fingerprint']} -> "
        f"{_verdict(v['fingerprint_match'])}",
    ]
    return "\n".join(lines)


def _selection(what: str, raw: str) -> tuple:
    """Parse a comma-separated ``--<what>`` value against its registry."""
    from .analysis.crossbase import ALL_TRACKERS, FAULTS, PRESETS
    from .mobility.gen import preset_names

    # what "all" selects, every legal name
    default, known = {
        "regimes": (preset_names(), preset_names()),
        "trackers": (ALL_TRACKERS, ALL_TRACKERS),
        "presets": (PRESETS, preset_names()),
        "faults": (FAULTS, FAULTS),
    }[what]
    if raw == "all":
        return tuple(default)
    names = tuple(name.strip() for name in raw.split(",") if name.strip())
    unknown = [name for name in names if name not in known]
    if unknown:
        raise ValueError(
            f"unknown {what}: {', '.join(unknown)}; "
            f"registered: {', '.join(known)}"
        )
    if not names:  # an empty grid would pass every gate vacuously
        raise ValueError(f"empty --{what} selection")
    return names


def _mobility(args):
    from .mobility.gen import preset_names, run_mobility_regime

    if args.list_regimes:
        return {"regimes": list(preset_names())}, 0
    rows = [
        run_mobility_regime(
            regime=name, n_moves=args.moves, n_finds=args.finds,
            **_pick(args, "r", "max_level", "seed", "n_objects", "shards", "mode"),
        )
        for name in args.regimes
    ]
    all_speed_ok = all(row.speed_ok for row in rows)
    all_match = all(
        row.fingerprint_match for row in rows if row.fingerprint_match is not None
    )
    return {
        **_pick(args, "r", "max_level", "seed", "moves", "finds", "mode", "shards"),
        "all_speed_ok": all_speed_ok,
        "all_fingerprints_match": all_match,
        "regimes": [row.as_dict() for row in rows],
    }, 0 if (all_speed_ok and all_match) else 1


def _mobility_text(v):
    rows = v["regimes"]
    if v["list_regimes"]:
        return "\n".join(rows)
    sharded = bool(v["shards"])
    lines = [
        "mobility: {n} regimes, r={r} MAX={max_level} seed={seed} moves={moves} "
        "finds={finds} mode={mode}".format_map({**v, "n": len(rows)})
        + (f" K={v['shards']}" if sharded else ""),
        f"{'regime':<20} {'obj':>3} {'moves':>5} {'finds':>5} "
        f"{'move work':>10} {'find work':>10} {'min dwell':>9} {'§VI':>4}"
        + ("  engine" if sharded else ""),
    ]
    for row in rows:
        lines.append(
            "{regime:<20} {objects:>3} {moves_observed:>5} "
            "{finds_completed:>2}/{finds_issued:<2} {move_work:>10.0f} "
            "{find_work:>10.0f} {min_dwell:>9.2f} {speed:>4}".format_map(
                {**row, "speed": "ok" if row["speed_ok"] else "VIOL"}
            )
            + ("  " + _verdict(row["fingerprint_match"]) if sharded else "")
        )
    lines += [
        "  {regime}: {speed_violation}".format_map(row)
        for row in rows if row["speed_violation"]
    ]
    return "\n".join(lines)


def _baselines(args):
    from .analysis.crossbase import run_cross_baselines

    payload = run_cross_baselines(
        n_moves=args.moves, n_finds=args.finds,
        **_pick(args, "trackers", "presets", "faults", "seed", "shards"),
    )
    if args.out:
        _write(args.out, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return payload, 1 if payload["all_classic_match"] is False else 0


def _baselines_text(v):
    from .analysis.reporting import CrossBaselines

    grid = v["grid"]
    return "\n".join([
        f"baselines: {len(grid['trackers'])} trackers x "
        f"{len(grid['presets'])} presets (moves={grid['n_moves']} "
        f"finds={grid['n_finds']} seed={grid['seed']} K={grid['shards']})",
        "\n\n".join(CrossBaselines().tables(v)),
        f"classic cross-engine fingerprints: {_verdict(v['all_classic_match'])}",
    ])


COMMANDS: Tuple[Command, ...] = (
    Command("demo", "tracked random walk with finds", (3, 2, 7), _demo, _demo_text, (
        Flag("--moves", COUNT, 20),
        Flag("--finds", COUNT, 4),
    )),
    Command("find", "find-cost sweep by distance", (2, 4, 21), _find, _find_text, ()),
    Command("chaos", "fault injection: loss/crash chaos + recovery metrics",
            (2, 2, 7), _chaos, _chaos_text, (
        Flag("--system", TEXT, "stabilizing",
             "scenario system key (default stabilizing; try vinestalk)"),
        Flag("--loss", PROBABILITY, 0.05, "per-message loss probability"),
        Flag("--crash", PROBABILITY, 0.0, "per-tick per-VSA crash probability"),
        Flag("--duration", TIME, 150.0, "fault window / workload length (sim time)"),
    )),
    Command("report", "regenerate EXPERIMENTS.md; exit 1 if a check fails",
            None, _report, _report_text, (
        Flag("--out", TEXT, None, "output path (default stdout)"),
        Flag("--obs", SWITCH, help=(
            "emit the obs/2 JSON artifact of one instrumented default-"
            "scenario run (typed events, conformance sampling) "
            "instead of the experiments report"
        )),
        Flag("--obs-stride", POSITIVE, 64,
             "conformance-sampler event stride for --obs (default 64)"),
    )),
    Command("validate", "validate a hierarchy (§II-B)",
            (3, 2, None), _validate, _validate_text, (
        Flag("--strip", SWITCH, help="strip world"),
        Flag("--skip-proximity", SWITCH, help="skip the proximity check"),
    )),
    Command("snapshot", "checkpoint the scripted walk at a cut point "
            "(at 0: a run file for 'sharded' and 'bisect')",
            (2, 2, 7), _snapshot, _snapshot_text, (
        Flag("--at", TIME, 25.0, "sim time of the cut point (default 25)"),
        Flag("--moves", COUNT, 5, "scripted walk moves (default 5)"),
        Flag("--finds", COUNT, 4, "scripted walk finds (default 4)"),
        Flag("--loss", PROBABILITY, 0.0, "arm a message-loss rule at this rate"),
        Flag("--jitter", PROBABILITY, 0.0, "arm a message-jitter rule at this rate"),
        Flag("--out", TEXT, "walk.ckpt", "checkpoint path (default walk.ckpt)"),
    )),
    Command("resume", "restore a checkpoint and run it to completion",
            None, _resume, _resume_text, (
        Flag("path", TEXT, help=f"a {CKPT_SCHEMA} file written by 'repro snapshot'"),
        Flag("--until", TIME, None,
             "sim time to run to, not before the cut (default: until no "
             "event is left)"),
    )),
    Command("bisect", "locate the first diverging event between two run files",
            None, _bisect, _bisect_text, (
        Flag("a", TEXT, help="run file A (its run from t=0; the cut is ignored)"),
        Flag("b", TEXT, help="run file B"),
        Flag("--obs", SWITCH, help="emit obs events on side B"),
    )),
    Command("sharded", "a run file on the sharded PDES core vs the single-loop "
            "reference (determinism check)",
            None, _sharded, _sharded_text, (
        Flag("path", TEXT, help="run file (its run from t=0; the cut is ignored)"),
        Flag("--shards", POSITIVE, 2, "region shard count K (default 2)"),
        Flag("--backend", Domain(str, choices=("serial", "processes")), "serial",
             "shard execution backend (default serial)"),
    )),
    Command("service",
            "multi-object tracking service: one load-generator workload "
            "on both engines + fingerprint verdict",
            (2, 2, 7), _service, _service_text, (
        Flag("--objects", POSITIVE, 6, "tracked objects M (default 6)", "n_objects"),
        Flag("--finds", COUNT, 40, "total find arrivals (default 40)"),
        Flag("--clients", POSITIVE, 4, "client origin pool size (default 4)",
             "find_clients"),
        Flag("--arrival", Domain(str, choices=("poisson", "burst", "uniform")),
             "poisson", "find arrival process (default poisson)"),
        Flag("--rate", RATE, 1.0, "poisson arrivals per sim time unit"),
        Flag("--deadline", TIME, 60.0, "per-find latency budget (sim time)"),
        Flag("--moves-per-object", COUNT, 2, "walk steps per object (default 2)"),
        Flag("--shards", POSITIVE, 2, "shard count K for the sharded engine"),
    )),
    Command("mobility",
            "tracked walk across generated mobility regimes "
            "(repro.mobility.gen presets)",
            (2, 2, 11), _mobility, _mobility_text, (
        Flag("--regimes", SELECTION, "all",
             'comma-separated preset names, or "all" (the full registry)'),
        Flag("--list", SWITCH, help="list registered regime presets and exit",
             dest="list_regimes"),
        Flag("--moves", POSITIVE, 8, "generated moves per object (default 8)"),
        Flag("--finds", COUNT, 4, "finds issued during the walk (default 4)"),
        Flag("--objects", POSITIVE, 1, "tracked objects (convoys expand on top)",
             "n_objects"),
        Flag("--shards", COUNT, 0,
             "also run at K shards and cross-check the "
             "fingerprint (0 = reference engine only)"),
        Flag("--mode", Domain(str, choices=("concurrent", "atomic")), "concurrent",
             "§VI speed-restriction mode (default concurrent)"),
    )),
    Command("baselines",
            "cross-baseline grid: all trackers x mobility presets, "
            "both engines, latency/work/handover/energy scoring",
            None, _baselines, _baselines_text, (
        Flag("--trackers", SELECTION, "all",
             'comma-separated tracker keys, or "all" (the full registry)'),
        Flag("--presets", SELECTION, "all",
             'comma-separated mobility presets, or "all" (the grid default)'),
        Flag("--faults", SELECTION, "none",
             'comma-separated fault-axis values, or "all" (default none)'),
        Flag("--seed", INT, 7, "root RNG seed"),
        Flag("--moves", POSITIVE, 6, "generated moves per object (default 6)"),
        Flag("--finds", COUNT, 3, "finds issued during the walk (default 3)"),
        Flag("--shards", POSITIVE, 2, "shard count K for the sharded engine"),
        Flag("--out", TEXT, None, "also write the bench-baselines/1 payload here"),
    )),
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="VINESTALK reproduction (Nolte & Lynch, ICDCS 2007)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command in COMMANDS:
        child = sub.add_parser(command.name, help=command.help)
        for flag in command.all_flags():
            domain, spec = flag.domain, {"help": flag.help}
            if flag.name.startswith("-"):  # a positional takes neither
                spec.update(dest=flag.key, default=flag.default)
            if domain.type is None:
                spec.update(action="store_true", default=False)
            else:
                spec.update(type=domain.type, choices=domain.choices)
            child.add_argument(flag.name, **spec)
    return parser


def _check(flag: Flag, args: argparse.Namespace) -> None:
    """Hold one parsed flag to its domain (a selection becomes its names)."""
    value, domain = getattr(args, flag.key), flag.domain
    if value is None:
        return  # optional and not given
    if domain is SELECTION:
        setattr(args, flag.key, _selection(flag.name.lstrip("-"), value))
    elif domain.ok is not None and not domain.ok(value):
        raise ValueError(f"{flag.key} {domain.says}, got {value}")


#: The exception types that mean "rejected input", not "bug".
_REJECTED_INPUT = (ValueError, OSError, CkptFormatError)


def main(argv: Optional[List[str]] = None) -> int:
    """Run one subcommand: the one result path and the one error path."""
    args = _build_parser().parse_args(argv)
    command = next(row for row in COMMANDS if row.name == args.command)
    rejected: Optional[Exception] = None
    try:
        for flag in command.all_flags():
            _check(flag, args)
        data, code = command.run(args)
    except _REJECTED_INPUT as exc:
        rejected, data, code = exc, {"error": str(exc)}, 2
    if args.json:
        data = {k: v for k, v in data.items() if not k.startswith("_")}
        envelope = {"schema": CLI_SCHEMA, "command": command.name, "data": data}
        print(json.dumps(envelope, sort_keys=True))
    elif rejected is not None:
        _note(str(rejected))
    else:
        text = command.text({**vars(args), **data})
        if text is not None:
            print(text)
    return code

