"""Unit tests for the discrete-event simulator."""

import pytest

from repro.scenario import ScenarioConfig, build
from repro.sim import SimulationError, Simulator


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_call_at_advances_clock():
    sim = Simulator()
    seen = []
    sim.call_at(4.0, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [4.0]
    assert sim.now == 4.0


def test_call_after_uses_relative_delay():
    sim = Simulator()
    seen = []
    sim.call_at(2.0, lambda: sim.call_after(3.0, lambda: seen.append(sim.now)))
    sim.run()
    assert seen == [5.0]


def test_scheduling_in_past_rejected():
    sim = Simulator()
    sim.call_at(5.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.call_at(1.0, lambda: None)


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.call_after(-0.1, lambda: None)


def test_run_until_stops_at_bound_and_advances_clock():
    sim = Simulator()
    seen = []
    for t in (1.0, 2.0, 8.0):
        sim.call_at(t, lambda t=t: seen.append(t))
    fired = sim.run_until(5.0)
    assert fired == 2
    assert seen == [1.0, 2.0]
    assert sim.now == 5.0
    assert len(sim._queue) == 1


def test_run_until_capped_by_max_events_keeps_pending_events_ahead():
    # The clock used to jump to the bound past the queued t=2 event,
    # and the next run() raised "an event in the past".
    sim = Simulator()
    seen = []
    for t in (1.0, 2.0):
        sim.call_at(t, lambda t=t: seen.append(t))
    assert sim.run_until(10.0, max_events=1) == 1
    assert sim.now == 1.0
    sim.run()
    assert seen == [1.0, 2.0] and sim.now == 2.0
    # With nothing left at or before the bound, the clock still moves on.
    sim.call_at(3.0, lambda: seen.append(3.0))
    assert sim.run_until(10.0, max_events=1) == 1
    assert sim.now == 10.0


def test_run_until_fires_events_at_exact_bound():
    sim = Simulator()
    seen = []
    sim.call_at(5.0, lambda: seen.append("x"))
    sim.run_until(5.0)
    assert seen == ["x"]


def test_events_at_same_time_fire_in_schedule_order():
    sim = Simulator()
    seen = []
    sim.call_at(1.0, lambda: seen.append("first"))
    sim.call_at(1.0, lambda: seen.append("second"))
    sim.run()
    assert seen == ["first", "second"]


def test_event_scheduled_at_current_time_during_event_fires():
    sim = Simulator()
    seen = []

    def outer():
        sim.call_at(sim.now, lambda: seen.append("inner"))

    sim.call_at(1.0, outer)
    sim.run()
    assert seen == ["inner"]


def test_cancel_event():
    sim = Simulator()
    seen = []
    ev = sim.call_at(1.0, lambda: seen.append("x"))
    sim.cancel(ev)
    sim.run()
    assert seen == []


def test_stop_from_within_event():
    sim = Simulator()
    seen = []
    sim.call_at(1.0, lambda: (seen.append(1), sim.stop()))
    sim.call_at(2.0, lambda: seen.append(2))
    sim.run()
    assert seen == [1]
    assert len(sim._queue) == 1


def test_max_events_limit():
    sim = Simulator()
    for t in range(10):
        sim.call_at(float(t), lambda: None)
    fired = sim.run(max_events=3)
    assert fired == 3
    assert len(sim._queue) == 7


def test_events_fired_counter():
    sim = Simulator()
    for t in range(5):
        sim.call_at(float(t), lambda: None)
    sim.run()
    assert sim.events_fired == 5


def test_self_rescheduling_chain_fires_every_event():
    sim = Simulator()
    fired = [0]

    def tick():
        fired[0] += 1
        if fired[0] < 50_000:
            sim.call_after(0.001, tick)

    sim.call_after(0.0, tick)
    sim.run()
    assert fired[0] == sim.events_fired == 50_000


def test_run_not_reentrant():
    sim = Simulator()
    errors = []

    def bad():
        try:
            sim.run()
        except SimulationError as exc:
            errors.append(exc)

    sim.call_at(1.0, bad)
    sim.run()
    assert len(errors) == 1


@pytest.mark.parametrize(
    "misuse",
    [
        lambda sim: sim.run(),
        lambda sim: sim.run_until(5.0),
        lambda sim: sim.step(),
    ],
    ids=["run", "run_until", "step"],
)
@pytest.mark.parametrize("drive", ["step", "run"])
def test_an_event_cannot_reenter_the_loop_however_it_was_fired(drive, misuse):
    # step() is how ckpt.bisect drives the loop; snapshot_scenario's
    # mid-event refusal reads the same `running` flag.
    sim = Simulator()
    fired = []

    def bad():
        fired.append("bad")
        assert sim.running
        misuse(sim)

    sim.call_at(1.0, bad)
    sim.call_at(2.0, lambda: fired.append("next"))
    with pytest.raises(SimulationError):
        sim.step() if drive == "step" else sim.run()
    assert fired == ["bad"] and not sim.running
    # The refusal leaves the simulator usable, by step() and by run().
    assert sim.now == 1.0
    assert sim.step() is True and fired == ["bad", "next"]
    assert sim.step() is False and sim.run() == 0


def test_loop_exit_hooks_run_whenever_control_returns():
    sim = Simulator()
    exits = []
    sim.add_loop_exit(lambda: exits.append((sim.events_fired, sim.running)))

    def boom():
        raise RuntimeError("boom")

    for when in (1.0, 2.0, 3.0, 4.0):
        sim.call_at(when, lambda: None)
    sim.call_at(5.0, boom)
    sim.step()
    sim.run(max_events=1)
    sim.run_until(3.5)
    sim.run_window(4.0)  # fires nothing: the bound is strict
    with pytest.raises(RuntimeError, match="boom"):
        sim.run()
    assert exits == [(1, False), (2, False), (3, False), (3, False), (5, False)]


class TestAfterEventHooks:
    """Simulator.add_after_event / remove_after_event mechanics."""

    def test_hook_fires_per_event_and_removes(self):
        scenario = build(ScenarioConfig(r=2, max_level=2, seed=1))
        sim = scenario.system.sim
        fired = []
        hook = sim.add_after_event(lambda: fired.append(sim.now))
        scenario.system.run_to_quiescence()
        assert len(fired) == sim.events_fired
        sim.remove_after_event(hook)
        before = len(fired)
        sim.call_at(sim.now + 1.0, lambda: None, tag="noop")
        sim.run_until(sim.now + 2.0)
        assert len(fired) == before

    def test_remove_unknown_hook_is_noop(self):
        scenario = build(ScenarioConfig(r=2, max_level=2, seed=1))
        scenario.system.sim.remove_after_event(lambda: None)
