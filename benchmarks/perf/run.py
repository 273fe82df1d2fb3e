"""The benchmark's one command.

Driver form, one workload per call (the contract of ``BENCHMARK.json``)::

    python3 benchmarks/perf/run.py --workload NAME --seed N --seconds S --trace 0|1

measures for about S seconds of timed calls (``--trace 0``: the
end-to-end metrics) or runs one traced rep plus the micro-benches
(``--trace 1``: the per-layer metrics), checks the outputs, and prints
one JSON object as its last line.

Suite form, for people::

    python3 benchmarks/perf/run.py [--seed 7] [--reps 5] [--workload NAME ...]
                                   [--quick] [--aa] [--manifest]

runs every named workload (default: all) both ways, prints every metric
as ``workload name unit median q1 q3 min max n`` and writes the numbers
to ``benchmarks/perf/out/ledger.json``.  Exit code 1 when a check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if __package__ in (None, ""):
    # Run as a script: import the package from the checkout root, not
    # from this directory (whose trace.py would shadow the stdlib's).
    sys.path[0] = str(ROOT)
    sys.path.insert(1, str(ROOT / "src"))

from benchmarks.perf.metrics import END_TO_END, PER_LAYER, manifest  # noqa: E402
from benchmarks.perf.trace import span_cost_ns  # noqa: E402
from benchmarks.perf.workloads import (  # noqa: E402
    BY_NAME,
    PINNED_SEED,
    QUICK_SCALE,
    WORKLOADS,
)

RUN_SECONDS = 8
#: Host-time metrics are scaled to a host that runs one iteration of the
#: calibration loop in this many ns (the reference box, undisturbed), by
#: the loop's speed measured on both sides of each timing.  The sandbox
#: alternates every few seconds between full speed and about 1.35x slower;
#: unscaled, a 4 s rep inherits that swing whole.
REFERENCE_HOST_NS = 120.0
OUT = HERE / "out"
#: A child must end well inside the 180 s a driver run may take.
CHILD_TIMEOUT_S = 150
#: Stop starting timed reps once a run has used this much host time.
RUN_BUDGET_S = 120

#: The one output that differs between engines on one script: the sharded
#: engine also schedules its cross-shard injections as events.
ENGINE_DEPENDENT = ("events",)


class BenchError(RuntimeError):
    """A child process failed; the run has no result."""


def spawn(module: str, *args: str) -> dict:
    """Run ``benchmarks.perf.<module>`` in a fresh process; its last line is JSON."""
    command = [sys.executable, "-m", f"benchmarks.perf.{module}", *args]
    env = {
        key: value for key, value in os.environ.items()
        if key not in ("REPRO_PARALLEL", "REPRO_TOPO_CACHE")
    }
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    done = subprocess.run(command, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        raise BenchError(f"{' '.join(command)} exited {done.returncode}:\n"
                         f"{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def child(workload: str, seed: int, scale: float, in_process: bool = False,
          trace_out: Optional[Path] = None) -> dict:
    """One rep of ``workload`` in a fresh child process."""
    args = ["--workload", workload, "--seed", str(seed), "--scale", repr(scale)]
    if in_process:
        args.append("--in-process")
    if trace_out is not None:
        args += ["--traced", "--trace-out", str(trace_out)]
    return spawn("child", *args)


def spread(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles, extremes and count of one metric's samples."""
    q1, _, q3 = quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": median(values), "q1": q1, "q3": q3,
            "min": min(values), "max": max(values), "n": len(values)}


def differences(outputs: dict, other: dict, keys: Sequence[str], label: str) -> List[str]:
    """The ``keys`` on which ``outputs`` disagree with ``other``'s."""
    return [
        f"{key} is {outputs[key]!r}, {label} has {other[key]!r}"
        for key in keys if outputs[key] != other[key]
    ]


def check_outputs(workload, seed: int, scale: float, reps: List[dict]) -> List[str]:
    """Every way the simulated outputs of these reps are wrong."""
    first = reps[0]["outputs"]
    problems = []
    for rep in reps[1:]:
        problems += differences(rep["outputs"], first, list(first), "an earlier rep")
    if seed == PINNED_SEED and scale == 1.0:
        with open(HERE / "expected.json") as handle:
            pinned = json.load(handle).get(workload.name)
        if pinned is None:
            problems.append(f"expected.json pins nothing for seed {PINNED_SEED}")
        else:
            problems += differences(first, pinned, list(pinned), "expected.json")
    if first["finds_completed"] == 0:
        problems.append("no find completed")
    return problems


# ----------------------------------------------------------------------
# One workload, end to end and traced
# ----------------------------------------------------------------------
def measure(workload, seed: int, scale: float, seconds: Optional[float] = None,
            reps: Optional[int] = None) -> dict:
    """Timed reps in fresh children: ``reps`` of them, or ``seconds`` of
    timed calls and at least two, so that outputs can be compared."""
    started = perf_counter()
    results: List[dict] = []

    def enough() -> bool:
        if reps is not None:
            return len(results) >= reps
        measured = sum(r["wall_s"] for r in results)
        out_of_time = perf_counter() - started > RUN_BUDGET_S
        return len(results) >= 2 and (measured >= seconds or out_of_time)

    while not enough():
        results.append(child(workload.name, seed, scale))
    problems = check_outputs(workload, seed, scale, results)
    outputs = results[0]["outputs"]
    walls, setups = [], []
    for r in results:
        before, between, after = r["host_ns"]
        walls.append(r["wall_s"] * REFERENCE_HOST_NS / ((between + after) / 2))
        setups += [s * REFERENCE_HOST_NS / ((before + between) / 2) for s in r["setup_s"]]
    samples = {
        "wall_s": walls,
        "setup_s": setups,
        "events_per_s": [outputs["events"] / wall for wall in walls],
        "finds_per_s": [outputs["finds_completed"] / wall for wall in walls],
        "peak_rss_mb": [r["peak_rss_mb"] for r in results],
    }
    for name in ("find_latency_mean_sim", "work_per_find", "work_per_move"):
        samples[name] = [r["outputs"][name] for r in results]
    return {
        "workload": workload.name,
        "seed": seed,
        "scale": scale,
        "nproc": results[0]["nproc"],
        "python": results[0]["python"],
        "problems": problems,
        "operations": outputs["operations"] * len(results),
        "outputs": outputs,
        "reps": results,
        "end_to_end": {name: spread(values) for name, values in samples.items()},
        # As the clock read them, before scaling to the reference host.
        "unscaled": {
            "wall_s": spread([r["wall_s"] for r in results]),
            "setup_s": spread([s for r in results for s in r["setup_s"]]),
            "host_ns": spread([ns for r in results for ns in r["host_ns"]]),
        },
    }


def trace(workload, seed: int, scale: float,
          micro: Optional[Dict[str, float]] = None,
          timed: Optional[dict] = None) -> dict:
    """One untraced and one traced in-process rep, plus the micro-benches.

    ``micro`` and ``timed`` hand in what the caller already has: the
    micro-bench results (they do not depend on the workload) and an
    untraced in-process rep.  By default both are taken here.
    """
    OUT.mkdir(exist_ok=True)
    if timed is None:
        timed = child(workload.name, seed, scale, in_process=True)
    traced = child(workload.name, seed, scale, in_process=True,
                   trace_out=OUT / f"trace-{workload.name}.json")
    layers: Dict[str, float] = dict(traced["layers"])
    problems = check_outputs(workload, seed, scale, [timed, traced])
    self_s = sum(v for name, v in layers.items() if name.endswith(".self_s"))
    if abs(self_s - layers["trace.root_wall_s"]) > 0.02 * layers["trace.root_wall_s"]:
        problems.append(f"layer self times sum to {self_s}, the root spans to "
                        f"{layers['trace.root_wall_s']}")
    if workload.workers():
        # The world ran in worker processes: the driving process's own
        # numbers come from a run traced on the driver side only.
        driver = child(workload.name, seed, scale,
                       trace_out=OUT / f"trace-{workload.name}-driver.json")
        problems += differences(driver["outputs"], timed["outputs"],
                                list(timed["outputs"]), "the in-process run")
        layers.update((m.name, driver["layers"][m.name]) for m in PER_LAYER if m.driver)
    if workload.reference is not None:
        reference = child(workload.reference, seed, scale)
        invariant = [key for key in timed["outputs"] if key not in ENGINE_DEPENDENT]
        problems += differences(timed["outputs"], reference["outputs"],
                                invariant, f"the {workload.reference} run")
    if not workload.armed:
        for layer in ("faults.filter", "energy.charge", "obs.emit"):
            if layers[f"{layer}.calls"]:
                problems.append(f"{layer} was called on an unarmed workload")
    layers["trace.overhead_ratio"] = traced["wall_s"] / timed["wall_s"]
    layers["trace.span_ns"] = span_cost_ns()
    layers.update(spawn("micro") if micro is None else micro)
    missing = [m.name for m in PER_LAYER if m.name not in layers]
    if missing:
        problems.append(f"no value for {missing}")
    return {
        "workload": workload.name,
        "seed": seed,
        "scale": scale,
        "problems": problems,
        "operations": timed["outputs"]["operations"],
        "per_layer": {m.name: layers.get(m.name, 0.0) for m in PER_LAYER},
    }


# ----------------------------------------------------------------------
# Driver form
# ----------------------------------------------------------------------
def driver_run(workload, seed: int, seconds: float, traced: bool) -> int:
    """One contract run: metric lines, then the result as one JSON line."""
    if traced:
        result = trace(workload, seed, 1.0)
        table, values = PER_LAYER, result["per_layer"]
    else:
        result = measure(workload, seed, 1.0, seconds=seconds)
        table = END_TO_END
        values = {name: stats["median"] for name, stats in result["end_to_end"].items()}
    for problem in result["problems"]:
        print(f"CHECK FAILED {workload.name}: {problem}", file=sys.stderr)
    correct = not result["problems"]
    for metric in table:
        print(f"{workload.name} {metric.name} {metric.unit} {values[metric.name]!r}")
    print(json.dumps({
        "correct": correct,
        "attempted": result["operations"],
        # A run that fails any output check counts all its operations failed.
        "failed": 0 if correct else result["operations"],
        "metrics": {
            metric.name: {"value": values[metric.name], "unit": metric.unit}
            for metric in table
        },
    }))
    return 0 if correct else 1


# ----------------------------------------------------------------------
# Suite form
# ----------------------------------------------------------------------
def print_end_to_end(result: dict) -> None:
    for metric in END_TO_END:
        s = result["end_to_end"][metric.name]
        print(f"{result['workload']} {metric.name} {metric.unit} {s['median']:.6g} "
              f"q1={s['q1']:.6g} q3={s['q3']:.6g} min={s['min']:.6g} "
              f"max={s['max']:.6g} n={s['n']}")
    for name, s in result["unscaled"].items():
        unit = name.rsplit("_", 1)[1]  # wall_s, setup_s, host_ns
        print(f"{result['workload']} unscaled.{name} {unit} {s['median']:.6g} "
              f"q1={s['q1']:.6g} q3={s['q3']:.6g} min={s['min']:.6g} "
              f"max={s['max']:.6g} n={s['n']}")


def compare_aa(first: dict, second: dict) -> List[str]:
    """A/A: two measurements of one tree must agree within the bounds."""
    problems = []
    name = first["workload"]
    if first["outputs"] != second["outputs"]:
        problems.append(f"{name}: simulated outputs differ between the two sets")
    for metric in END_TO_END:
        a = first["end_to_end"][metric.name]["median"]
        b = second["end_to_end"][metric.name]["median"]
        worse = (b - a) / a if metric.better == "lower" else (a - b) / a
        verdict = "ok" if abs(worse) <= metric.bound else "OUTSIDE"
        print(f"A/A {name} {metric.name} first={a:.6g} second={b:.6g} "
              f"moved={worse:+.2%} bound={metric.bound:.0%} {verdict}")
        if abs(worse) > metric.bound:
            problems.append(f"{name}: {metric.name} moved {worse:+.2%} between two "
                            f"sets of runs of the same tree (bound {metric.bound:.0%})")
    return problems


def suite(names: Sequence[str], seed: int, reps: int, quick: bool, aa: bool) -> int:
    scale = QUICK_SCALE if quick else 1.0
    problems: List[str] = []
    ledger: Dict[str, Any] = {"seed": seed, "scale": scale, "workloads": {}}
    micro = spawn("micro")
    for name in names:
        workload = BY_NAME[name]
        measured = measure(workload, seed, scale, reps=reps)
        print_end_to_end(measured)
        problems += [f"{name}: {p}" for p in measured["problems"]]
        if aa:
            again = measure(workload, seed, scale, reps=reps)
            problems += [f"{name}: {p}" for p in again["problems"]]
            problems += compare_aa(measured, again)
        # A single-process workload's timed rep is already in-process.
        timed = None if workload.workers() else measured["reps"][0]
        traced = trace(workload, seed, scale, micro, timed)
        for metric in PER_LAYER:
            print(f"{name} {metric.name} {metric.unit} {traced['per_layer'][metric.name]:.6g}")
        problems += [f"{name}: {p}" for p in traced["problems"]]
        ledger["workloads"][name] = {
            "outputs": measured["outputs"],
            "end_to_end": measured["end_to_end"],
            "unscaled": measured["unscaled"],
            "per_layer": traced["per_layer"],
        }
        ledger.update(nproc=measured["nproc"], python=measured["python"])
    for problem in problems:
        print(f"CHECK FAILED {problem}", file=sys.stderr)
    if not quick:  # tenth-size numbers are never recorded
        OUT.mkdir(exist_ok=True)
        with open(OUT / "ledger.json", "w") as handle:
            json.dump(ledger, handle, indent=1, sort_keys=True)
    print("FAILED" if problems else "OK", file=sys.stderr)
    return 1 if problems else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", choices=[w.name for w in WORKLOADS])
    parser.add_argument("--seed", type=int, default=PINNED_SEED)
    parser.add_argument("--seconds", type=float,
                        help="driver form: measure one workload for this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reps", type=int, default=5, help="suite form: timed reps")
    parser.add_argument("--quick", action="store_true",
                        help="tenth-size scripts, nothing recorded")
    parser.add_argument("--aa", action="store_true",
                        help="measure twice and compare against the bounds")
    parser.add_argument("--manifest", action="store_true",
                        help="rewrite BENCHMARK.json from the metric tables and exit")
    args = parser.parse_args(argv)

    if args.manifest:
        with open(ROOT / "BENCHMARK.json", "w") as handle:
            json.dump(manifest(RUN_SECONDS), handle, indent=2)
            handle.write("\n")
        return 0
    if args.seconds is not None:
        if not args.workload or len(args.workload) != 1:
            parser.error("--seconds takes exactly one --workload")
        return driver_run(BY_NAME[args.workload[0]], args.seed, args.seconds,
                          bool(args.trace))
    names = args.workload or [w.name for w in WORKLOADS]
    return suite(names, args.seed, args.reps, args.quick, args.aa)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as error:
        print(error, file=sys.stderr)
        sys.exit(2)
