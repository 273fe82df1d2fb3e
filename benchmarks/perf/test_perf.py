"""Tests of the benchmark itself.

Not part of tier-1 (``testpaths`` stays ``tests``); run them with
``PYTHONPATH=src python -m pytest benchmarks/perf``.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from importlib import import_module
from pathlib import Path

from benchmarks.perf import trace as tracing
from benchmarks.perf.metrics import END_TO_END, PER_LAYER, manifest
from benchmarks.perf.run import RUN_SECONDS
from benchmarks.perf.workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_self_time_is_duration_minus_children(monkeypatch):
    # outer 0..10 holds a 2..5 and b 6..7; b holds c 6.5..6.75.
    ticks = iter([0.0, 2.0, 5.0, 6.0, 6.5, 6.75, 7.0, 10.0])
    monkeypatch.setattr(tracing, "perf_counter", lambda: next(ticks))
    tracer = tracing.Tracer()
    c = tracer.bind("leaf/c", lambda: None)
    a = tracer.bind("leaf/a", lambda: None)
    b = tracer.bind("mid/b", c)
    tracer.call("root/outer", lambda: (a(), b()))

    assert tracer.self_s == {"leaf/a": 3.0, "leaf/c": 0.25, "mid/b": 0.75, "root/outer": 6.0}
    assert sum(tracer.self_s.values()) == 10.0
    calls, self_s = tracing.layer_totals(tracer.report())
    assert calls == {"leaf": 2, "mid": 1, "root": 1}
    assert self_s["leaf"] == 3.25
    spans = {span[1]: span for span in tracer.spans}
    assert spans["leaf/c"][4] == spans["mid/b"][0]  # parent id
    assert spans["root/outer"][4] == -1
    assert {span[5] for span in tracer.spans} == {1}  # one root, one run id


def test_raw_spans_are_capped_but_aggregates_are_not():
    tracer = tracing.Tracer(keep=3)
    noop = tracer.bind("layer/noop", lambda: None)
    for _ in range(10):
        noop()
    assert len(tracer.spans) == 3
    assert tracer.calls["layer/noop"] == 10


def test_every_patched_attribute_is_restored():
    import repro.scenario  # noqa: F401 - the modules the function patches scan
    import repro.service.service  # noqa: F401
    import repro.sim.sharded.context  # noqa: F401

    owners = [
        (getattr(import_module(module), cls), attr)
        for module, cls, attr, _ in tracing.METHODS + tracing.DRIVER_METHODS
    ]
    for module, cls, attr in (
        ("repro.sim.event_queue", "EventQueue", "push"),
        ("repro.tioa.automaton", "TimedAutomaton", "handle_input"),
        ("repro.tioa.automaton", "TimedAutomaton", "perform"),
        ("repro.geocast.cgcast", "CGcast", "vsa_distance_units"),
        ("repro.geocast.cgcast", "CGcast", "observe"),
        ("repro.geocast.cgcast", "CGcast", "register_client_sink"),
        ("repro.faults.injector", "FaultInjector", "arm"),
        ("repro.sim.sharded.core", "ShardedSimulator", "run"),
    ):
        owners.append((getattr(import_module(module), cls), attr))
    for module, attr, _ in tracing.FUNCTIONS:
        owners.append((import_module(module), attr))
    # Imported by name elsewhere: these must be found and restored too.
    owners.append((import_module("repro.sim.sharded.context"), "schedule_workload"))
    owners.append((import_module("repro.service.service"), "service_metrics"))
    before = [vars(owner)[attr] for owner, attr in owners]

    tracer = tracing.Tracer()
    tracing.install(tracer)
    during = [vars(owner)[attr] for owner, attr in owners]
    tracer.restore()
    after = [vars(owner)[attr] for owner, attr in owners]

    assert all(d is not b for d, b in zip(during, before))
    assert all(a is b for a, b in zip(after, before))
    assert not tracer._patches


def test_names_and_sizes_fit_the_contract():
    names = [w.name for w in WORKLOADS] + [m.name for m in END_TO_END + PER_LAYER]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert 2 <= len(WORKLOADS) <= 8
    assert 1 <= len(END_TO_END) <= 16
    assert 1 <= len(PER_LAYER) <= 128
    assert all(len(w.why) <= 200 and "\n" not in w.why for w in WORKLOADS)
    assert all(0 < m.bound <= 0.25 for m in END_TO_END)
    assert any(m.name == "setup_s" and m.unit == "s" and m.better == "lower"
               for m in END_TO_END)


def test_every_prediction_names_an_existing_metric_and_workload():
    end_to_end = {m.name for m in END_TO_END}
    workloads = {w.name for w in WORKLOADS}
    for metric in PER_LAYER:
        assert metric.moves in end_to_end, metric.name
        assert metric.on and set(metric.on) <= workloads, metric.name


def test_benchmark_json_is_the_generated_manifest():
    with open(ROOT / "BENCHMARK.json") as handle:
        committed = json.load(handle)
    assert committed == manifest(RUN_SECONDS)
    assert set(committed) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}


def test_pinned_expectations_cover_every_workload():
    with open(HERE / "expected.json") as handle:
        expected = json.load(handle)
    assert set(expected) == {w.name for w in WORKLOADS}
    for pinned in expected.values():
        assert {"events", "finds_issued", "finds_completed", "fingerprint",
                "find_latency_p50_sim", "find_latency_p99_sim"} <= set(pinned)


def test_quick_suite_end_to_end():
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "--reps", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    lines = done.stdout.splitlines()
    for workload in WORKLOADS:
        for metric in END_TO_END + PER_LAYER:
            assert any(line.startswith(f"{workload.name} {metric.name} {metric.unit} ")
                       for line in lines), (workload.name, metric.name)
