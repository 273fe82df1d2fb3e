"""The compiled message program draws exactly what the interpreter drew.

``FaultInjector.arm`` compiles the plan's message rules into one program;
:class:`~tests.faults._reference_perturb.ReferenceInjector` is the
per-message interpreter that defines the draws.  Four contracts:

1. **Differential** — random plans, seeds and message streams, stable
   and sequential mode: identical delay lists, ``FaultStats``, stream
   positions and ``MessagesPerturbed`` events.
2. **Bounded counters** — the occurrence dict never holds more keys
   than the current instant sent messages.
3. **Checkpoint** — a stable-draws world cut in the middle of an
   instant whose counters are already above one resumes bit-identically.
4. **Fail closed** — a rule on a channel no system has is refused by
   ``arm()``; ``"both"`` means the system's one channel, draw for draw.
"""

from types import SimpleNamespace

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

import repro.obs as obs  # noqa: E402
from repro.ckpt import (  # noqa: E402
    build_tracked_walk,
    restore_scenario,
    run_fingerprint,
    snapshot_scenario,
    walk_horizon,
)
from repro.faults import (  # noqa: E402
    CHANNEL_BOTH,
    CHANNEL_CGCAST,
    CHANNEL_VBCAST,
    FaultInjector,
    FaultPlan,
    LagSpike,
    MessageDuplication,
    MessageJitter,
    MessageLoss,
)
from repro.scenario import MESSAGE_SYSTEMS, ScenarioConfig, build  # noqa: E402
from repro.sim.sharded import make_walk_workload, run_script  # noqa: E402
from tests.faults._reference_perturb import ReferenceInjector  # noqa: E402


class Grow:
    """Stand-in payload: only its type name enters a message key."""


class Find:
    pass


PAYLOADS = (Grow(), Find())
ENDPOINTS = ((0, 0), (0, 1), ("clients", (0, 0)), "C1:(0, 0)")


def fake_system():
    """The attributes an injector with message rules touches, no more."""
    return SimpleNamespace(
        sim=SimpleNamespace(now=0),
        cgcast=SimpleNamespace(fault_filter=None),
        delta=1.0,
        e=0.5,
    )


channels = st.sampled_from([CHANNEL_CGCAST, CHANNEL_BOTH])
rates = st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0])

rules = st.one_of(
    st.builds(MessageLoss, rate=rates, channel=channels),
    st.builds(
        MessageDuplication, rate=rates, channel=channels,
        copies=st.integers(min_value=1, max_value=3),
    ),
    st.builds(
        MessageJitter, rate=rates, channel=channels,
        max_extra=st.sampled_from([0.0, 0.25, 3]),
    ),
    st.builds(
        LagSpike,
        at=st.sampled_from([0.0, 1.0, 2.5]),
        duration=st.sampled_from([0.0, 1.5, 100.0]),
        extra_e=st.sampled_from([0.0, 0.5]),
    ),
)

plans = st.builds(
    FaultPlan,
    rules=st.lists(rules, max_size=5).map(tuple),
    horizon=st.sampled_from([None, None, 0.0, 3.0]),
)

seeds = st.sampled_from([0, 1, 7, -1, -(2 ** 33) - 5, 2 ** 32, 2 ** 40 + 3])

#: One message: how the clock moves before it, then what is sent.
#: ``"fresh"`` keeps the instant under a new time object, as every event
#: of one instant brings its own; ``"retype"`` keeps it but swaps 3 for
#: 3.0 (or back): equal times that print differently, hence other keys.
messages = st.tuples(
    st.sampled_from([0, 0, "fresh", 0.5, 1, 1.0, "retype"]),
    st.integers(min_value=0, max_value=len(ENDPOINTS) - 1),
    st.integers(min_value=0, max_value=len(ENDPOINTS) - 1),
    st.integers(min_value=0, max_value=len(PAYLOADS) - 1),
    st.sampled_from([1.0, 1.5, 4]),
)


def replay(injector_class, plan, seed, stable, stream):
    """Feed ``stream`` through an armed injector's C-gcast filter."""
    system = fake_system()
    sim = system.sim
    injector = injector_class(system, plan, seed=seed, stable_draws=stable).arm()
    out = []
    with obs.observed() as collector:
        for advance, src, dest, payload, delay in stream:
            if advance == "fresh":
                sim.now = type(sim.now)(repr(sim.now))
            elif advance == "retype":
                now = sim.now
                sim.now = float(now) if isinstance(now, int) else (
                    int(now) if now == int(now) else now
                )
            elif advance:
                sim.now = sim.now + advance
            filt = system.cgcast.fault_filter
            args = (ENDPOINTS[src], ENDPOINTS[dest], PAYLOADS[payload], delay)
            out.append(None if filt is None else filt(*args))
        events = list(collector.events)
    return out, injector.stats.as_dict(), injector.streams.state(), events


@settings(max_examples=300, deadline=None)
@given(plan=plans, seed=seeds, stable=st.booleans(),
       stream=st.lists(messages, max_size=40))
def test_compiled_program_equals_the_interpreter(plan, seed, stable, stream):
    expected = replay(ReferenceInjector, plan, seed, stable, stream)
    assert replay(FaultInjector, plan, seed, stable, stream) == expected


def drive_walk(injector_class, plan, stable):
    """The tracked walk on a built system with ``injector_class`` armed,
    recording what the installed filter returned for every send."""
    scenario = build_tracked_walk(ScenarioConfig(r=2, max_level=2, seed=7))
    system = scenario.system
    injector = injector_class(system, plan, seed=7, stable_draws=stable).arm()
    installed, sends = system.cgcast.fault_filter, []

    def recording(*args):
        delays = installed(*args)
        sends.append((system.sim.now, delays))
        return delays

    system.cgcast.fault_filter = recording
    with obs.observed() as collector:
        system.sim.run_until(walk_horizon(5))
        events = [e for e in collector.events if e.kind == "messages-perturbed"]
    return sends, injector.stats.as_dict(), injector.streams.state(), events


def test_every_op_and_both_channels_are_exercised():
    """A built system's walk through all four ops under ``"both"``,
    multi-copy branches included: duplication first, so loss, jitter and
    the lag spike all see lists."""
    plan = FaultPlan.of(
        MessageDuplication(rate=0.9, channel=CHANNEL_BOTH, copies=2),
        MessageLoss(rate=0.4, channel=CHANNEL_BOTH),
        MessageDuplication(rate=0.5, channel=CHANNEL_BOTH, copies=1),
        MessageJitter(rate=0.5, channel=CHANNEL_BOTH, max_extra=2.0),
        LagSpike(at=0.0, duration=50.0, extra_e=0.5),
        horizon=45.0,
    )
    for stable in (True, False):
        expected = drive_walk(ReferenceInjector, plan, stable)
        actual = drive_walk(FaultInjector, plan, stable)
        assert actual == expected
        sends, stats, _, events = actual
        assert stats["messages_dropped"] > 0
        assert stats["messages_duplicated"] > 0
        assert stats["messages_delayed"] > 0
        assert any(d is not None and len(d) > 3 for _, d in sends)
        assert any(d == [] for _, d in sends)
        assert events and {e.channel for e in events} == {CHANNEL_CGCAST}
        # Past the horizon the sends are untouched: the last move and the find.
        late = [d for t, d in sends if t >= 45.0]
        assert late and all(d is None for d in late)


@pytest.mark.parametrize("system", MESSAGE_SYSTEMS)
@pytest.mark.parametrize(
    "rule",
    [
        MessageLoss(rate=0.9, channel=CHANNEL_VBCAST),
        MessageDuplication(rate=0.5, channel=CHANNEL_VBCAST),
        MessageJitter(rate=0.5, channel=CHANNEL_VBCAST, max_extra=1.0),
    ],
    ids=lambda rule: type(rule).__name__,
)
def test_a_rule_on_a_channel_no_system_has_is_refused(system, rule):
    config = ScenarioConfig(r=2, max_level=2, system=system)
    with pytest.raises(ValueError, match=type(rule).__name__):
        build(config.with_(fault_plan=FaultPlan.of(rule)))
    # A null rule perturbs nothing on any channel: it arms as before.
    null = type(rule)(rate=0.0, channel=CHANNEL_VBCAST)
    assert build(config.with_(fault_plan=FaultPlan.of(null))).injector is not None


def test_both_is_the_one_channel_draw_for_draw():
    """One script under ``"both"`` and under ``"cgcast"``: same run."""
    config = ScenarioConfig(r=2, max_level=2, seed=7, stable_fault_draws=True)
    script = make_walk_workload(build(config).hierarchy.tiling, 6, 4, seed=7)
    runs = [
        run_script(
            config.with_(fault_plan=FaultPlan.of(
                MessageLoss(rate=0.1, channel=channel),
                MessageDuplication(rate=0.3, channel=channel),
                MessageJitter(rate=0.3, channel=channel, max_extra=1.0),
            )),
            script,
            "plain",
        )
        for channel in (CHANNEL_BOTH, CHANNEL_CGCAST)
    ]
    assert sum(runs[0].fault_events.values()) > 0
    assert runs[0].exact_fingerprint == runs[1].exact_fingerprint
    assert runs[0].fault_events == runs[1].fault_events


def test_occurrence_counters_hold_one_instant_only():
    plan = FaultPlan.of(MessageLoss(rate=0.5, channel=CHANNEL_BOTH))
    system = fake_system()
    injector = FaultInjector(system, plan, seed=3, stable_draws=True).arm()
    filt = system.cgcast.fault_filter
    for instant in range(50):
        system.sim.now = float(instant)
        sent = 1 + instant % 7
        for k in range(sent):
            filt(ENDPOINTS[k % 2], ENDPOINTS[0], PAYLOADS[0], 1.0)
            assert len(injector._edge_counts) <= k + 1
        assert sum(injector._edge_counts.values()) == sent
    # A new float object for the same instant is not a new instant.
    system.sim.now = float(instant)
    filt(ENDPOINTS[0], ENDPOINTS[0], PAYLOADS[0], 1.0)
    assert sum(injector._edge_counts.values()) == sent + 1


STABLE_WALK = ScenarioConfig(
    r=2, max_level=2, seed=7, stable_fault_draws=True,
    fault_plan=FaultPlan.of(
        MessageLoss(rate=0.1, channel=CHANNEL_BOTH),
        MessageDuplication(rate=0.4, channel=CHANNEL_BOTH, copies=2),
        MessageJitter(rate=0.3, channel=CHANNEL_BOTH, max_extra=1.0),
    ),
)


def test_snapshot_inside_an_instant_resumes_bit_identically():
    horizon = walk_horizon(5)
    golden = build_tracked_walk(STABLE_WALK)
    golden.sim.run_until(horizon)

    # Cut between two events of one instant, after some key of that
    # instant was already sent twice: the next draws need the counters.
    scenario = build_tracked_walk(STABLE_WALK)
    sim, counts = scenario.sim, scenario.injector._edge_counts
    while not (
        counts and max(counts.values()) >= 2 and sim.next_event_time() == sim.now
    ):
        assert sim.run(max_events=1) == 1, "no cut point inside an instant"
    snapshot = snapshot_scenario(scenario)

    resumed = restore_scenario(snapshot).scenario
    assert resumed.injector._edge_counts == counts
    resumed.sim.run_until(horizon)
    assert run_fingerprint(resumed) == run_fingerprint(golden)
    assert resumed.injector.stats == golden.injector.stats

    # The counters are load-bearing: forgetting them changes the run.
    amnesiac = restore_scenario(snapshot).scenario
    amnesiac.injector._edge_counts.clear()
    amnesiac.sim.run_until(horizon)
    assert run_fingerprint(amnesiac) != run_fingerprint(golden)
