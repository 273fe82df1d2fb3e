"""Typed structured events: gating, emission, schema, retention.

The typed events are the trace of a run — they must appear when the
gate is on, stay completely silent when off, and every record must
serialize to schema-versioned JSON via :func:`event_dict`.
"""

import json
import random
import runpy
from pathlib import Path

import repro.obs as obs
from repro.faults.plan import CHANNEL_BOTH, FaultPlan, MessageLoss
from repro.mobility import RandomNeighborWalk
from repro.obs import EVENT_TYPES, OBS_EVENT_SCHEMA, GrowSent, event_dict
from repro.scenario import ScenarioConfig, build


def run_tracked_walk(n_moves=4, fault_plan=None, seed=6):
    scenario = build(ScenarioConfig(
        r=2, max_level=2, seed=seed, fault_plan=fault_plan,
    ))
    system = scenario.system
    regions = system.hierarchy.tiling.regions()
    center = regions[len(regions) // 2]
    evader = system.make_evader(
        RandomNeighborWalk(start=center), dwell=1e12, start=center,
        rng=random.Random(seed),
    )
    system.run_to_quiescence()
    for _ in range(n_moves):
        evader.step()
        system.run_to_quiescence()
    system.issue_find(regions[0])
    system.run_to_quiescence()
    return scenario


def test_no_events_recorded_when_gate_off():
    # A collector attached with the gate down hears nothing: the hot
    # paths test ``events_enabled``, not the collector.
    collector = obs.ObsCollector()
    obs.OBS.collector = collector
    try:
        run_tracked_walk()
    finally:
        obs.disable()
    assert collector.events_seen == 0
    assert not collector.events
    assert collector.events_by_kind() == {}


def test_hot_paths_emit_typed_events():
    with obs.observed() as collector:
        run_tracked_walk()
    by_kind = collector.events_by_kind()
    assert by_kind["grow-sent"] > 0
    assert by_kind["shrink-sent"] > 0
    assert by_kind["message-dispatched"] > 0
    assert by_kind["findquery"] > 0
    assert by_kind["found"] == 1
    assert sum(by_kind.values()) == collector.events_seen
    assert len(collector.events) <= collector.events_seen


def test_fault_injector_emits_perturbation_events():
    plan = FaultPlan.of(MessageLoss(rate=0.4, channel=CHANNEL_BOTH))
    with obs.observed() as collector:
        run_tracked_walk(fault_plan=plan, seed=9)
    assert collector.events_by_kind().get("messages-perturbed", 0) > 0


def test_event_dict_is_schema_versioned_json():
    kinds = {cls.kind for cls in EVENT_TYPES}
    with obs.observed() as collector:
        run_tracked_walk()
    assert collector.events
    for event in collector.events:
        payload = event_dict(event)
        assert payload["schema"] == OBS_EVENT_SCHEMA
        assert payload["kind"] in kinds
        json.dumps(payload)  # JSON-safe, including ClusterId fields


def test_retention_cap_bounds_memory_not_counts():
    with obs.observed(max_events=5) as collector:
        run_tracked_walk()
    assert len(collector.events) == 5
    assert collector.events_seen > 5
    assert sum(collector.events_by_kind().values()) == collector.events_seen


def test_observed_context_restores_previous_gate():
    outer = obs.enable()
    try:
        with obs.observed() as inner:
            assert obs.OBS.collector is inner
            assert obs.OBS.events_enabled
        assert obs.OBS.collector is outer
        assert obs.OBS.events_enabled
    finally:
        obs.disable()
    assert obs.OBS.collector is None
    assert not obs.OBS.events_enabled


def test_subscribe_unsubscribe_round_trip():
    with obs.observed() as collector:
        seen = []
        fn = seen.append
        assert collector.subscriber_count == 0
        collector.subscribe(fn)
        assert collector.subscriber_count == 1
        collector.emit(GrowSent(time=0.0, cluster=None, level=0,
                                parent=None, lateral=False))
        collector.unsubscribe(fn)
        collector.emit(GrowSent(time=1.0, cluster=None, level=0,
                                parent=None, lateral=False))
    assert len(seen) == 1
    assert collector.subscriber_count == 0


def test_verify_model_example_prints_the_cascade_from_events(capsys):
    example = Path(__file__).parents[2] / "examples" / "verify_model.py"
    runpy.run_path(str(example), run_name="__main__")
    out = capsys.readouterr().out
    assert "lookAhead == atomicMoveSeq held at every one of the 12 events" in out
    cascade = out.split("update cascade of the move")[1].splitlines()
    assert any("grow-sent   C0:(5, 5) -> C0:(4, 4) (lateral)" in line for line in cascade)
    assert sum("GrowNbr" in line for line in cascade) == 8
    assert "settled state consistent: True" in out
