"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``demo``     — run a tracked random walk and print the structure + costs;
* ``find``     — sweep find costs by distance on a chosen world;
* ``chaos``    — run the fault-injection harness and print recovery metrics;
* ``report``   — run the experiment registry and regenerate EXPERIMENTS.md
  (to stdout or a file); exits 1 when any of its checks failed;
* ``validate`` — run the full §II-B hierarchy validation for a world;
* ``snapshot`` — run the canonical tracked walk to a cut point and write
  a ``ckpt/3`` checkpoint file;
* ``resume``   — restore a checkpoint and run its continuation to the end
  (bit-identical to the uninterrupted run);
* ``bisect``   — replay two run variants in lockstep and report the first
  diverging event;
* ``sharded``  — run the region-sharded PDES core on a scripted walk,
  compare its trace fingerprint at K shards against the single-loop
  reference engine, and report the determinism verdict (CI's
  smoke-sharded job runs this with ``--json``);
* ``service``  — run one multi-object :class:`~repro.service.LoadGenerator`
  workload through :class:`~repro.service.TrackingService` on both
  engines and report per-find latency metrics plus the cross-engine
  fingerprint verdict (CI's smoke-cli job runs this with ``--json``);
* ``mobility`` — run the E-series tracked walk across generated mobility
  regimes (:mod:`repro.mobility.gen` presets): per-regime work, §VI
  speed verdict and trace fingerprints, with an optional sharded-engine
  cross-check (CI's smoke-mobility job runs this with ``--json``);
* ``baselines`` — run the cross-baseline grid
  (:mod:`repro.analysis.crossbase`): every registered tracker over a
  shared mobility-preset grid on both engines, scoring find latency,
  message work, handovers and energy (CI's smoke-cli job runs this
  with ``--json``).

The world-shape flags (``--r``, ``--max-level``, ``--seed``) are shared
by every world-building command via a common parent parser; each command
keeps its historical defaults.  **Every** subcommand accepts ``--json``
(a second shared parent): machine output is one schema-versioned
envelope ``{"schema": "repro-cli/1", "command": <name>, "data": {...}}``
so scripts and CI never parse per-command shapes.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from typing import Any, Dict, List, Optional

#: Envelope schema for all ``--json`` output.
CLI_SCHEMA = "repro-cli/1"


def _emit(command: str, data: Dict[str, Any]) -> None:
    """Print the one ``repro-cli/1`` JSON envelope for ``command``."""
    print(json.dumps(
        {"schema": CLI_SCHEMA, "command": command, "data": data},
        sort_keys=True,
    ))


def _common_flags(
    r: int, max_level: int, seed: Optional[int] = None
) -> argparse.ArgumentParser:
    """A fresh parent parser with the world-shape flags and defaults.

    Each subcommand gets its **own** parent instance: argparse parents
    share action objects, so a single shared parent plus per-subparser
    ``set_defaults`` silently gives every command the defaults of
    whichever subparser was registered last.
    """
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--r", type=int, default=r, help="grid base")
    common.add_argument("--max-level", type=int, default=max_level,
                        help="hierarchy MAX")
    common.add_argument("--seed", type=int, default=seed,
                        help="root RNG seed")
    return common


def _json_flags() -> argparse.ArgumentParser:
    """Parent parser holding the ``--json`` flag every command takes."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--json", action="store_true",
        help='emit one {"schema": "repro-cli/1", ...} JSON envelope',
    )
    return parent


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="VINESTALK reproduction (Nolte & Lynch, ICDCS 2007)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    jsonf = _json_flags()

    demo = sub.add_parser(
        "demo", parents=[_common_flags(r=3, max_level=2, seed=7), jsonf],
        help="tracked random walk with finds",
    )
    demo.add_argument("--moves", type=int, default=20)
    demo.add_argument("--finds", type=int, default=4)

    find = sub.add_parser(
        "find", parents=[_common_flags(r=2, max_level=4, seed=21), jsonf],
        help="find-cost sweep by distance",
    )

    chaos = sub.add_parser(
        "chaos", parents=[_common_flags(r=2, max_level=2, seed=7), jsonf],
        help="fault injection: loss/crash chaos + recovery metrics",
    )
    chaos.add_argument(
        "--system", default="stabilizing",
        help="scenario system key (default stabilizing; try vinestalk)",
    )
    chaos.add_argument("--loss", type=float, default=0.05,
                       help="per-message loss probability")
    chaos.add_argument("--crash", type=float, default=0.0,
                       help="per-tick per-VSA crash probability")
    chaos.add_argument("--duration", type=float, default=150.0,
                       help="fault window / workload length (sim time)")

    report = sub.add_parser(
        "report", parents=[jsonf],
        help="regenerate EXPERIMENTS.md; exit 1 if a check fails"
    )
    report.add_argument("--out", default=None, help="output path (default stdout)")
    report.add_argument(
        "--obs", action="store_true",
        help="emit the obs/1 JSON artifact of one instrumented default-"
             "scenario run (spans, typed events, conformance sampling) "
             "instead of the experiments report",
    )
    report.add_argument(
        "--obs-stride", type=int, default=64,
        help="conformance-sampler event stride for --obs (default 64)",
    )

    validate = sub.add_parser(
        "validate", parents=[_common_flags(r=3, max_level=2), jsonf],
        help="validate a hierarchy (§II-B)",
    )
    validate.add_argument("--strip", action="store_true", help="strip world")
    validate.add_argument(
        "--skip-proximity", action="store_true", help="skip the proximity check"
    )

    snapshot = sub.add_parser(
        "snapshot", parents=[_common_flags(r=2, max_level=2, seed=7), jsonf],
        help="checkpoint the canonical tracked walk at a cut point",
    )
    snapshot.add_argument("--at", type=float, default=25.0,
                          help="sim time of the cut point (default 25)")
    snapshot.add_argument("--moves", type=int, default=5,
                          help="scheduled walk moves (default 5)")
    snapshot.add_argument("--loss", type=float, default=None,
                          help="arm a message-loss fault plan at this rate")
    snapshot.add_argument("--out", default="walk.ckpt",
                          help="checkpoint path (default walk.ckpt)")

    resume = sub.add_parser(
        "resume", parents=[jsonf],
        help="restore a checkpoint and run it to completion",
    )
    resume.add_argument("path", help="a ckpt/3 file written by 'repro snapshot'")
    resume.add_argument("--until", type=float, default=None,
                        help="sim time to run to (default: the walk horizon)")

    bisect = sub.add_parser(
        "bisect", parents=[_common_flags(r=2, max_level=2, seed=7), jsonf],
        help="locate the first diverging event between two run variants",
    )
    bisect.add_argument("--a", default="base", dest="variant_a",
                        help='variant A, e.g. "base" or "seed:8,loss:0.3"')
    bisect.add_argument("--b", default="base", dest="variant_b",
                        help='variant B, e.g. "seed:8" or "obs:on"')
    bisect.add_argument("--moves", type=int, default=5)
    bisect.add_argument("--window", type=int, default=256,
                        help="events per lockstep window (default 256)")

    sharded = sub.add_parser(
        "sharded", parents=[_common_flags(r=2, max_level=3, seed=11), jsonf],
        help="sharded PDES run vs single-loop reference (determinism check)",
    )
    sharded.add_argument("--shards", type=int, default=2,
                         help="region shard count K (default 2)")
    sharded.add_argument("--backend", choices=("serial", "processes"),
                         default="serial",
                         help="shard execution backend (default serial)")
    sharded.add_argument("--moves", type=int, default=8)
    sharded.add_argument("--finds", type=int, default=4)
    sharded.add_argument("--loss", type=float, default=0.0,
                         help="arm a message-loss rule at this rate")
    sharded.add_argument("--jitter", type=float, default=0.0,
                         help="arm a message-jitter rule at this rate")

    service = sub.add_parser(
        "service", parents=[_common_flags(r=2, max_level=2, seed=7), jsonf],
        help="multi-object tracking service: one load-generator workload "
             "on both engines + fingerprint verdict",
    )
    service.add_argument("--objects", type=int, default=6,
                         help="tracked objects M (default 6)")
    service.add_argument("--finds", type=int, default=40,
                         help="total find arrivals (default 40)")
    service.add_argument("--clients", type=int, default=4,
                         help="client origin pool size (default 4)")
    service.add_argument("--arrival", choices=("poisson", "burst", "uniform"),
                         default="poisson",
                         help="find arrival process (default poisson)")
    service.add_argument("--rate", type=float, default=1.0,
                         help="poisson arrivals per sim time unit")
    service.add_argument("--deadline", type=float, default=60.0,
                         help="per-find latency budget (sim time)")
    service.add_argument("--moves-per-object", type=int, default=2,
                         help="walk steps per object (default 2)")
    service.add_argument("--shards", type=int, default=2,
                         help="shard count K for the sharded engine")
    service.add_argument("--profile", action="store_true",
                         help="run each engine with obs spans enabled and "
                              "report per-phase self-time")

    mobility = sub.add_parser(
        "mobility", parents=[_common_flags(r=2, max_level=2, seed=11), jsonf],
        help="tracked walk across generated mobility regimes "
             "(repro.mobility.gen presets)",
    )
    mobility.add_argument(
        "--regimes", default="all",
        help='comma-separated preset names, or "all" (the full registry)',
    )
    mobility.add_argument("--list", action="store_true", dest="list_regimes",
                          help="list registered regime presets and exit")
    mobility.add_argument("--moves", type=int, default=8,
                          help="generated moves per object (default 8)")
    mobility.add_argument("--finds", type=int, default=4,
                          help="finds issued during the walk (default 4)")
    mobility.add_argument("--objects", type=int, default=1,
                          help="tracked objects (convoys expand on top)")
    mobility.add_argument("--shards", type=int, default=0,
                          help="also run at K shards and cross-check the "
                               "fingerprint (0 = reference engine only)")
    mobility.add_argument("--mode", choices=("concurrent", "atomic"),
                          default="concurrent",
                          help="§VI speed-restriction mode (default concurrent)")

    baselines = sub.add_parser(
        "baselines", parents=[jsonf],
        help="cross-baseline grid: all trackers x mobility presets, "
             "both engines, latency/work/handover/energy scoring",
    )
    baselines.add_argument(
        "--trackers", default="all",
        help='comma-separated tracker keys, or "all" (the full registry)',
    )
    baselines.add_argument(
        "--presets", default="all",
        help='comma-separated mobility presets, or "all" (the grid default)',
    )
    baselines.add_argument("--seed", type=int, default=7, help="root RNG seed")
    baselines.add_argument("--moves", type=int, default=6,
                           help="generated moves per object (default 6)")
    baselines.add_argument("--finds", type=int, default=3,
                           help="finds issued during the walk (default 3)")
    baselines.add_argument("--shards", type=int, default=2,
                           help="shard count K for the sharded engine")
    baselines.add_argument("--out", default=None,
                           help="also write the bench-baselines/1 payload here")
    return parser


def cmd_demo(args) -> int:
    from .analysis.render import render_grid_world, render_path, render_pointer_stats
    from .mobility.models import RandomNeighborWalk
    from .scenario import ScenarioConfig, build

    scenario = build(ScenarioConfig(r=args.r, max_level=args.max_level,
                                    seed=args.seed))
    system, accountant = scenario.parts()
    hierarchy = scenario.hierarchy
    rng = random.Random(args.seed)
    regions = hierarchy.tiling.regions()
    start = regions[len(regions) // 2]
    evader = system.make_evader(
        RandomNeighborWalk(start=start), dwell=1e12, start=start, rng=rng
    )
    system.run_to_quiescence()
    for _ in range(args.moves):
        evader.step()
        system.run_to_quiescence()
    finds = []
    snapshot = system.snapshot()
    for _ in range(args.finds):
        origin = rng.choice(regions)
        find_id = system.issue_find(origin)
        system.run_to_quiescence()
        record = system.finds.records[find_id]
        finds.append({
            "origin": list(origin),
            "distance": hierarchy.tiling.distance(origin, evader.region),
            "work": record.work,
            "latency": record.latency,
        })
    if args.json:
        _emit("demo", {
            "r": args.r,
            "max_level": args.max_level,
            "seed": args.seed,
            "width": hierarchy.tiling.width,
            "height": hierarchy.tiling.height,
            "moves": args.moves,
            "evader_region": list(evader.region),
            "move_work": accountant.move_work,
            "finds": finds,
        })
        return 0
    print(
        f"world {hierarchy.tiling.width}x{hierarchy.tiling.height} "
        f"(r={args.r}, MAX={args.max_level}), {args.moves} moves, "
        f"evader at {evader.region}"
    )
    print(render_grid_world(hierarchy, snapshot, evader.region))
    print(render_path(hierarchy, snapshot))
    print(render_pointer_stats(snapshot))
    print(f"move work: {accountant.move_work:.0f} "
          f"({accountant.move_work / max(1, args.moves):.1f} per move)")
    for info in finds:
        print(f"find from {tuple(info['origin'])} (d={info['distance']}): "
              f"work {info['work']:.0f}, latency {info['latency']:.1f}")
    return 0


def cmd_find(args) -> int:
    from .analysis.experiments import mean_find_work_by_distance, run_find_sweep
    from .analysis.reporting import render_table

    diameter = args.r**args.max_level - 1
    distances = sorted({1, 2, 3, 4, max(1, diameter // 4), max(1, diameter // 2)})
    results = run_find_sweep(
        args.r, args.max_level, distances, seed=args.seed, finds_per_distance=4
    )
    pairs = mean_find_work_by_distance(results)
    if args.json:
        _emit("find", {
            "r": args.r,
            "max_level": args.max_level,
            "seed": args.seed,
            "sweep": [
                {"distance": d, "mean_find_work": w} for d, w in pairs
            ],
        })
        return 0
    print(render_table(
        ["d", "mean find work"], pairs,
        title=f"find cost by distance (r={args.r}, MAX={args.max_level})",
    ))
    return 0


def cmd_chaos(args) -> int:
    from .analysis.recovery import run_chaos

    result = run_chaos(
        r=args.r,
        max_level=args.max_level,
        seed=args.seed,
        system=args.system,
        loss_rate=args.loss,
        crash_rate=args.crash,
        duration=args.duration,
    )
    if args.json:
        _emit("chaos", {
            "system": result.system,
            "loss_rate": result.loss_rate,
            "crash_rate": result.crash_rate,
            "seed": result.seed,
            "moves": result.moves,
            "finds_issued": result.finds_issued,
            "finds_completed": result.finds_completed,
            "find_success_rate": result.find_success_rate,
            "find_retries": result.find_retries,
            "recovered": result.recovered,
            "reconsistency_time": result.reconsistency_time,
            "work_overhead": result.work_overhead,
            "fault_events": result.fault_events,
        })
        return 0
    print(
        f"chaos: system={result.system} r={args.r} MAX={args.max_level} "
        f"seed={result.seed} loss={result.loss_rate} crash={result.crash_rate} "
        f"duration={result.duration:.0f}"
    )
    events = ", ".join(f"{k}={v}" for k, v in result.fault_events.items() if v)
    print(f"fault events: {events or 'none'}")
    print(f"moves: {result.moves}")
    print(
        f"finds: {result.finds_completed}/{result.finds_issued} completed "
        f"(success rate {result.find_success_rate:.2f}, "
        f"{result.find_retries} retries)"
    )
    if result.recovered:
        print(f"recovered: yes (time to reconsistency "
              f"{result.reconsistency_time:.1f} after fault horizon)")
    else:
        print("recovered: NO (structure still inconsistent at wait budget)")
    print(f"work overhead vs golden run: {result.work_overhead:.2f}x")
    return 0


def cmd_report(args) -> int:
    if args.obs:
        return _report_obs(args)
    from .analysis.reporting import build_report

    text, failed = build_report(
        progress=lambda name: print(f"running {name} ...", file=sys.stderr)
    )
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
    data = {"out": args.out, "length": len(text), "failed": failed}
    if args.json:
        _emit("report", data if args.out else {**data, "report": text})
    elif args.out:
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        print(text)
    for key, statement in failed:
        print(f"FAILED {key}: {statement}", file=sys.stderr)
    return 1 if failed else 0


def _report_obs(args) -> int:
    """``repro report --obs``: one observed run → obs/1 JSON artifact."""
    from .obs.export import render_obs_summary, write_obs_artifact
    from .obs.probe import run_obs_probe

    payload = run_obs_probe(stride=args.obs_stride)
    if args.out:
        write_obs_artifact(args.out, payload)
    if args.json:
        _emit("report", {"out": args.out, "obs": payload})
    elif args.out:
        print(render_obs_summary(payload))
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        print(json.dumps(payload, indent=2, sort_keys=True))
        print(render_obs_summary(payload), file=sys.stderr)
    return 0


def cmd_validate(args) -> int:
    from .hierarchy.validation import HierarchyValidationError, validate_hierarchy
    from .topo import shared_grid_hierarchy, shared_strip_hierarchy

    if args.strip:
        hierarchy = shared_strip_hierarchy(args.r, args.max_level)
        kind = "strip"
    else:
        hierarchy = shared_grid_hierarchy(args.r, args.max_level)
        kind = "grid"
    error: Optional[str] = None
    try:
        validate_hierarchy(hierarchy, proximity=not args.skip_proximity)
    except HierarchyValidationError as exc:
        error = str(exc)
    if args.json:
        _emit("validate", {
            "kind": kind,
            "r": args.r,
            "max_level": args.max_level,
            "regions": len(hierarchy.tiling.regions()),
            "diameter": hierarchy.tiling.diameter(),
            "valid": error is None,
            "error": error,
        })
        return 0 if error is None else 1
    if error is not None:
        print(f"INVALID: {error}")
        return 1
    print(
        f"{kind} hierarchy r={args.r} MAX={args.max_level} "
        f"({len(hierarchy.tiling.regions())} regions, "
        f"D={hierarchy.tiling.diameter()}): all §II-B requirements hold"
    )
    return 0


def cmd_snapshot(args) -> int:
    from .ckpt import build_tracked_walk, save, snapshot_scenario
    from .scenario import ScenarioConfig

    config = ScenarioConfig(r=args.r, max_level=args.max_level, seed=args.seed)
    if args.loss is not None:
        from .faults.plan import CHANNEL_BOTH, FaultPlan, MessageLoss

        config = config.with_(
            fault_plan=FaultPlan.of(MessageLoss(rate=args.loss, channel=CHANNEL_BOTH))
        )
    scenario = build_tracked_walk(config, moves=args.moves)
    scenario.sim.run_until(args.at)
    snapshot = snapshot_scenario(
        scenario, note=f"tracked-walk moves={args.moves}"
    )
    save(snapshot, args.out)
    meta = snapshot.meta
    if args.json:
        _emit("snapshot", {
            "out": args.out,
            "schema": meta.schema,
            "sim_time": meta.sim_time,
            "events_fired": meta.events_fired,
            "payload_bytes": len(snapshot.payload),
            "topo_keys": [
                {"kind": k.kind, "r": k.r, "max_level": k.max_level}
                for k in meta.topo_keys
            ],
        })
        return 0
    print(
        f"wrote {args.out}: schema {meta.schema}, t={meta.sim_time:g}, "
        f"{meta.events_fired} events fired, "
        f"{len(snapshot.payload)} payload bytes, "
        f"topo keys {[f'{k.kind}(r={k.r},M={k.max_level})' for k in meta.topo_keys]}"
    )
    return 0


def _note_moves(note: str, default: int = 5) -> int:
    """Moves count embedded in a snapshot note by ``cmd_snapshot``."""
    for token in note.split():
        if token.startswith("moves="):
            try:
                return int(token[len("moves="):])
            except ValueError:
                break
    return default


def cmd_resume(args) -> int:
    from .ckpt import load, trace_fingerprint, walk_horizon
    from .scenario import build

    snapshot = load(args.path)
    until = args.until
    if until is None:
        until = walk_horizon(_note_moves(snapshot.meta.note))
    scenario = build(snapshot.config.with_(resume_from=snapshot))
    scenario.sim.run_until(until)
    fp = trace_fingerprint(scenario)
    finds = scenario.system.finds.records.values()
    if args.json:
        _emit("resume", {
            "resumed_from_t": snapshot.meta.sim_time,
            "ran_until": until,
            "sim_time": fp[0],
            "events_fired": fp[1],
            "trace_records": fp[2],
            "trace_crc": fp[3],
            "evader_region": list(fp[4]) if fp[4] is not None else None,
            "finds_completed": sum(1 for r in finds if r.completed),
        })
        return 0
    print(
        f"resumed {args.path} from t={snapshot.meta.sim_time:g} to "
        f"t={fp[0]:g}: {fp[1]} events fired, {fp[2]} trace records "
        f"(crc {fp[3]:#010x}), evader at {fp[4]}"
    )
    return 0


def cmd_bisect(args) -> int:
    from .ckpt import Variant, bisect_divergence
    from .scenario import ScenarioConfig

    report = bisect_divergence(
        ScenarioConfig(r=args.r, max_level=args.max_level, seed=args.seed),
        Variant.parse(args.variant_a),
        Variant.parse(args.variant_b),
        moves=args.moves,
        window=args.window,
    )
    if args.json:
        _emit("bisect", report.as_dict())
        return 0
    print(f"bisect [{report.variant_a}] vs [{report.variant_b}]: {report.note}")
    if report.diverged:
        for label, info in (("A", report.event_a), ("B", report.event_b)):
            if info is None:
                print(f"  side {label}: (no event — side had already drained)")
                continue
            print(f"  side {label}: event at t={info.time:g}, "
                  f"{len(info.records)} trace records")
            for rec in info.records[:4]:
                print(f"    {rec}")
    return 0


def cmd_sharded(args) -> int:
    from .sim.sharded import run_reference_walk, run_sharded_walk

    kwargs = dict(
        r=args.r,
        max_level=args.max_level,
        seed=args.seed,
        n_moves=args.moves,
        n_finds=args.finds,
        loss_rate=args.loss,
        jitter_rate=args.jitter,
    )
    reference = run_reference_walk(**kwargs)
    sharded = run_sharded_walk(
        shards=args.shards, backend=args.backend, **kwargs
    )
    match = sharded.canonical_fingerprint == reference.canonical_fingerprint
    bit_identical = (
        sharded.exact_fingerprint is not None
        and sharded.exact_fingerprint == reference.exact_fingerprint
    )
    if args.json:
        _emit("sharded", {
            "shards": sharded.shards,
            "backend": sharded.backend,
            "events": sharded.events,
            "windows": sharded.windows,
            "cross_shard_messages": sharded.cross_shard_messages,
            "messages_sent": sharded.messages_sent,
            "finds_issued": sharded.finds_issued,
            "finds_completed": sharded.finds_completed,
            "canonical_fingerprint": sharded.canonical_fingerprint,
            "reference_fingerprint": reference.canonical_fingerprint,
            "fingerprint_match": match,
            "bit_identical": bit_identical,
            "wall_s": sharded.wall_s,
            "barrier_wait_s": sharded.barrier_wait_s,
            "fault_events": sharded.fault_events,
        })
        return 0 if match else 1
    print(
        f"sharded: K={sharded.shards} backend={sharded.backend} "
        f"r={args.r} MAX={args.max_level} seed={args.seed} "
        f"moves={args.moves} finds={args.finds}"
    )
    print(
        f"events: {sharded.events} over {sharded.windows} windows, "
        f"{sharded.cross_shard_messages} cross-shard messages, "
        f"finds {sharded.finds_completed}/{sharded.finds_issued} completed"
    )
    print(
        f"fingerprint: {sharded.canonical_fingerprint} "
        f"(reference {reference.canonical_fingerprint}) -> "
        f"{'MATCH' if match else 'DIVERGED'}"
        + (", bit-identical at K=1" if bit_identical else "")
    )
    print(
        f"wall {sharded.wall_s:.3f}s (reference {reference.wall_s:.3f}s), "
        f"barrier wait {sharded.barrier_wait_s:.3f}s"
    )
    return 0 if match else 1


def cmd_service(args) -> int:
    from .scenario import ScenarioConfig
    from .service import LoadGenerator, TrackingService
    from .sim.sharded.core import _tiling_for

    config = ScenarioConfig(
        r=args.r,
        max_level=args.max_level,
        seed=args.seed,
        shards=args.shards,
        n_objects=args.objects,
        find_clients=args.clients,
    )
    load = LoadGenerator(
        tiling=_tiling_for(config),
        n_objects=args.objects,
        n_finds=args.finds,
        find_clients=args.clients,
        arrival=args.arrival,
        rate=args.rate,
        moves_per_object=args.moves_per_object,
        deadline=args.deadline,
    )
    profiles = {}

    def run_engine(engine: str):
        service = TrackingService(config, engine=engine)
        if not args.profile:
            return service.run(load)
        import repro.obs as obs

        with obs.observed(spans=True, events=False) as collector:
            result = service.run(load)
        profiles[engine] = {
            phase: round(seconds, 6)
            for phase, seconds in sorted(collector.phase_totals.items())
        }
        return result

    plain = run_engine("plain")
    sharded = run_engine("sharded")
    match = plain.canonical_fingerprint == sharded.canonical_fingerprint
    if args.json:
        _emit("service", {
            "objects": args.objects,
            "finds": args.finds,
            "clients": args.clients,
            "arrival": args.arrival,
            "shards": sharded.shards,
            "plain": {
                "canonical_fingerprint": plain.canonical_fingerprint,
                "events": plain.events,
                "messages_sent": plain.messages_sent,
                "metrics": plain.metrics,
            },
            "sharded": {
                "canonical_fingerprint": sharded.canonical_fingerprint,
                "events": sharded.events,
                "messages_sent": sharded.messages_sent,
                "windows": sharded.windows,
                "cross_shard_messages": sharded.cross_shard_messages,
                "metrics": sharded.metrics,
            },
            "fingerprint_match": match,
            **({"profile": profiles} if args.profile else {}),
        })
        return 0 if match else 1
    metrics = sharded.metrics
    latency = metrics["latency"]
    print(
        f"service: M={args.objects} finds={args.finds} "
        f"clients={args.clients} arrival={args.arrival} "
        f"r={args.r} MAX={args.max_level} seed={args.seed} K={sharded.shards}"
    )
    print(
        f"finds: {metrics['finds_completed']}/{metrics['finds_issued']} "
        f"completed (rate {metrics['completion_rate']:.2f}), "
        f"deadline misses {metrics['deadlines_missed']}/{metrics['deadlines_set']}"
    )
    if latency["p50"] is not None:
        print(
            f"latency: p50={latency['p50']:.1f} p95={latency['p95']:.1f} "
            f"p99={latency['p99']:.1f} jitter={latency['jitter']:.2f}"
        )
    print(
        f"throughput: {metrics['throughput_per_time']:.3f} finds/time, "
        f"handovers {metrics['handovers_total']}"
    )
    print(
        f"fingerprint: plain {plain.canonical_fingerprint} vs "
        f"K={sharded.shards} {sharded.canonical_fingerprint} -> "
        f"{'MATCH' if match else 'DIVERGED'}"
    )
    if args.profile:
        phases = sorted(set(profiles["plain"]) | set(profiles["sharded"]))
        print("profile: per-phase self-time (seconds)")
        print(f"  {'phase':<12} {'plain':>10} {'sharded':>10}")
        for phase in phases:
            print(
                f"  {phase:<12} {profiles['plain'].get(phase, 0.0):>10.4f} "
                f"{profiles['sharded'].get(phase, 0.0):>10.4f}"
            )
    return 0 if match else 1


def _selection(what: str, raw: str, default, known) -> tuple:
    """Parse a comma-separated ``--<what>`` value against ``known`` names.

    Raises ``ValueError`` on an unknown name or an empty selection (an
    empty grid would pass every gate vacuously).
    """
    if raw == "all":
        return tuple(default)
    names = tuple(name.strip() for name in raw.split(",") if name.strip())
    unknown = [name for name in names if name not in known]
    if unknown:
        raise ValueError(
            f"unknown {what}: {', '.join(unknown)}; "
            f"registered: {', '.join(known)}"
        )
    if not names:
        raise ValueError(f"empty --{what} selection")
    return names


def _usage_error(args, exc: Exception) -> int:
    """Report rejected input (error envelope under ``--json``); exit 2."""
    if args.json:
        _emit(args.command, {"error": str(exc)})
    else:
        print(exc, file=sys.stderr)
    return 2


def cmd_mobility(args) -> int:
    from .mobility.gen import preset_names, run_mobility_regime

    known = preset_names()
    if args.list_regimes:
        if args.json:
            _emit("mobility", {"regimes": list(known)})
        else:
            for name in known:
                print(name)
        return 0
    regimes = _selection("regimes", args.regimes, known, known)
    rows = []
    for name in regimes:
        result = run_mobility_regime(
            regime=name,
            r=args.r,
            max_level=args.max_level,
            seed=args.seed,
            n_moves=args.moves,
            n_finds=args.finds,
            n_objects=args.objects,
            shards=args.shards,
            mode=args.mode,
        )
        rows.append(result)
    all_speed_ok = all(row.speed_ok for row in rows)
    all_match = all(
        row.fingerprint_match for row in rows if row.fingerprint_match is not None
    )
    if args.json:
        _emit("mobility", {
            "r": args.r,
            "max_level": args.max_level,
            "seed": args.seed,
            "moves": args.moves,
            "finds": args.finds,
            "mode": args.mode,
            "shards": args.shards,
            "all_speed_ok": all_speed_ok,
            "all_fingerprints_match": all_match,
            "regimes": [
                {
                    "regime": row.regime,
                    "objects": row.n_objects,
                    "steps_scripted": row.steps_scripted,
                    "finds_completed": row.finds_completed,
                    "finds_issued": row.finds_issued,
                    "events": row.events,
                    "messages_sent": row.messages_sent,
                    "moves_observed": row.moves_observed,
                    "move_work": row.move_work,
                    "find_work": row.find_work,
                    "min_dwell": row.min_dwell,
                    "mean_dwell": row.mean_dwell,
                    "speed_ok": row.speed_ok,
                    "speed_violation": row.speed_violation,
                    "touched_levels": {
                        str(level): count
                        for level, count in sorted(row.touched_levels.items())
                    },
                    "canonical_fingerprint": row.canonical_fingerprint,
                    "sharded_fingerprint": row.sharded_fingerprint,
                    "fingerprint_match": row.fingerprint_match,
                }
                for row in rows
            ],
        })
        return 0 if (all_speed_ok and all_match) else 1
    print(
        f"mobility: {len(rows)} regimes, r={args.r} MAX={args.max_level} "
        f"seed={args.seed} moves={args.moves} finds={args.finds} "
        f"mode={args.mode}"
        + (f" K={args.shards}" if args.shards else "")
    )
    header = (
        f"{'regime':<20} {'obj':>3} {'moves':>5} {'finds':>5} "
        f"{'move work':>10} {'find work':>10} {'min dwell':>9} {'§VI':>4}"
        + ("  engine" if args.shards else "")
    )
    print(header)
    for row in rows:
        line = (
            f"{row.regime:<20} {row.n_objects:>3} {row.moves_observed:>5} "
            f"{row.finds_completed:>2}/{row.finds_issued:<2} "
            f"{row.move_work:>10.0f} {row.find_work:>10.0f} "
            f"{row.min_dwell:>9.2f} {'ok' if row.speed_ok else 'VIOL':>4}"
        )
        if args.shards:
            line += "  " + (
                "MATCH" if row.fingerprint_match else "DIVERGED"
            )
        print(line)
    if not all_speed_ok:
        for row in rows:
            if row.speed_violation:
                print(f"  {row.regime}: {row.speed_violation}")
    return 0 if (all_speed_ok and all_match) else 1


def cmd_baselines(args) -> int:
    import json as json_mod

    from .analysis.crossbase import ALL_TRACKERS, PRESETS, run_cross_baselines
    from .analysis.reporting import CrossBaselines
    from .mobility.gen import preset_names

    trackers = _selection("trackers", args.trackers, ALL_TRACKERS, ALL_TRACKERS)
    presets = _selection("presets", args.presets, PRESETS, preset_names())
    payload = run_cross_baselines(
        trackers=trackers,
        presets=presets,
        n_moves=args.moves,
        n_finds=args.finds,
        seed=args.seed,
        shards=args.shards,
    )
    if args.out:
        with open(args.out, "w") as handle:
            json_mod.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.out}", file=sys.stderr)
    if args.json:
        _emit("baselines", payload)
        return 0 if payload["all_classic_match"] else 1
    print(
        f"baselines: {len(trackers)} trackers x {len(presets)} presets "
        f"(moves={args.moves} finds={args.finds} seed={args.seed} "
        f"K={args.shards})"
    )
    print(*CrossBaselines().tables(payload), sep="\n\n")
    verdict = "MATCH" if payload["all_classic_match"] else "DIVERGED"
    print(f"classic cross-engine fingerprints: {verdict}")
    return 0 if payload["all_classic_match"] else 1


def _rejected_input() -> tuple:
    """The exception types that mean "rejected input", not "bug"."""
    # repro.ckpt needs cloudpickle: only the commands that can raise its
    # typed refusals import it, so look it up instead of importing it.
    ckpt = sys.modules.get(f"{__package__}.ckpt")
    if ckpt is None:
        return (ValueError, OSError)
    return (ValueError, OSError, ckpt.CkptFormatError, ckpt.CkptCompatError)


def main(argv: Optional[List[str]] = None) -> int:
    """Run one subcommand; rejected input exits 2 through one error path."""
    args = _build_parser().parse_args(argv)
    handlers = {
        "demo": cmd_demo,
        "find": cmd_find,
        "chaos": cmd_chaos,
        "report": cmd_report,
        "validate": cmd_validate,
        "snapshot": cmd_snapshot,
        "resume": cmd_resume,
        "bisect": cmd_bisect,
        "sharded": cmd_sharded,
        "service": cmd_service,
        "mobility": cmd_mobility,
        "baselines": cmd_baselines,
    }
    try:
        return handlers[args.command](args)
    except _rejected_input() as exc:  # evaluated when something is raised
        return _usage_error(args, exc)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
