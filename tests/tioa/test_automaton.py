"""Unit tests for the TIOA framework: actions, automata, executor, timers."""

import pytest

from repro.sim import Simulator
from repro.tioa import (
    Action,
    ActionKind,
    AutomatonError,
    Executor,
    TimedAutomaton,
    Timer,
)


class Echo(TimedAutomaton):
    """Echoes each received ping as a pong output (urgent)."""

    def __init__(self, name="echo"):
        super().__init__(name)
        self.pending = []
        self.received = []
        self.sent = []

    def reset_state(self):
        self.pending = []
        self.received = []
        self.sent = []

    def input_ping(self, value):
        self.received.append(value)
        self.pending.append(value)

    def enabled_outputs(self):
        if self.pending:
            return [Action.output("pong", value=self.pending[0])]
        return []

    def output_pong(self, value):
        self.pending.pop(0)
        self.sent.append((self.now, value))


class Alarm(TimedAutomaton):
    """Fires one beep output when its timer expires."""

    def __init__(self, name="alarm"):
        super().__init__(name)
        self.timer = Timer(self, "t")
        self.beeps = []

    def arm(self, delay):
        self.timer.arm(self.now + delay)

    def enabled_outputs(self):
        if self.timer.armed and self.now >= self.timer.deadline:
            return [Action.output("beep")]
        return []

    def output_beep(self):
        self.timer.disarm()
        self.beeps.append(self.now)

    def on_failed(self):
        self.timer.disarm()


@pytest.fixture()
def rig():
    sim = Simulator()
    return sim, Executor(sim)


class TestAction:
    def test_factories_set_kind(self):
        assert Action.input("x").kind is ActionKind.INPUT
        assert Action.output("x").kind is ActionKind.OUTPUT
        assert Action.internal("x").kind is ActionKind.INTERNAL

    def test_payload_roundtrip(self):
        a = Action.input("m", b=2, a=1)
        assert a.kwargs == {"a": 1, "b": 2}
        assert a.get("a") == 1
        assert a.get("missing", 9) == 9

    def test_actions_are_hashable_and_comparable(self):
        assert Action.input("m", a=1) == Action.input("m", a=1)
        assert Action.input("m", a=1) != Action.input("m", a=2)
        assert len({Action.input("m", a=1), Action.input("m", a=1)}) == 1


class TestExecutor:
    def test_register_and_lookup(self, rig):
        sim, ex = rig
        echo = Echo()
        assert ex.register(echo) is echo
        assert echo.executor is ex

    def test_duplicate_name_rejected(self, rig):
        sim, ex = rig
        ex.register(Echo())
        with pytest.raises(AutomatonError):
            ex.register(Echo())

    def test_deliver_applies_effect_after_delay(self, rig):
        sim, ex = rig
        echo = ex.register(Echo())
        ex.deliver(echo, Action.input("ping", value=7), delay=2.5)
        sim.run()
        assert echo.received == [7]
        assert echo.sent == [(2.5, 7)]

    def test_outputs_drain_urgently_in_order(self, rig):
        sim, ex = rig
        echo = ex.register(Echo())
        ex.deliver(echo, Action.input("ping", value=1))
        ex.deliver(echo, Action.input("ping", value=2))
        sim.run()
        assert [v for _, v in echo.sent] == [1, 2]
        assert all(t == 0.0 for t, _ in echo.sent)

    def test_unknown_input_raises(self, rig):
        sim, ex = rig
        echo = ex.register(Echo())
        ex.deliver(echo, Action.input("bogus"))
        with pytest.raises(AutomatonError):
            sim.run()

    def test_non_input_delivery_raises(self, rig):
        sim, ex = rig
        echo = ex.register(Echo())
        with pytest.raises(AutomatonError):
            echo.handle_input(Action.output("pong", value=1))

    def test_detached_automaton_raises(self):
        echo = Echo()
        with pytest.raises(AutomatonError):
            _ = echo.executor

    def test_nonquiescent_automaton_detected(self, rig):
        sim, ex = rig

        class Livelock(TimedAutomaton):
            def enabled_outputs(self):
                return [Action.output("spin")]

            def output_spin(self):
                pass

        auto = ex.register(Livelock("spin"))
        with pytest.raises(AutomatonError, match="quiesce"):
            ex.kick(auto)


class TestFailures:
    def test_failed_automaton_ignores_inputs(self, rig):
        sim, ex = rig
        echo = ex.register(Echo())
        echo.fail()
        ex.deliver(echo, Action.input("ping", value=1))
        sim.run()
        assert echo.received == []

    def test_restart_resets_state(self, rig):
        sim, ex = rig
        echo = ex.register(Echo())
        ex.deliver(echo, Action.input("ping", value=1))
        sim.run()
        echo.fail()
        echo.restart()
        assert echo.received == []
        assert not echo.failed

    def test_failure_during_transit_drops_delivery(self, rig):
        sim, ex = rig
        echo = ex.register(Echo())
        ex.deliver(echo, Action.input("ping", value=1), delay=5.0)
        sim.call_at(1.0, echo.fail)
        sim.run()
        assert echo.received == []


class TestTimer:
    def test_timer_fires_output(self, rig):
        sim, ex = rig
        alarm = ex.register(Alarm())
        alarm.arm(3.0)
        sim.run()
        assert alarm.beeps == [3.0]
        assert not alarm.timer.armed

    def test_rearm_replaces_deadline(self, rig):
        sim, ex = rig
        alarm = ex.register(Alarm())
        alarm.arm(3.0)
        alarm.arm(5.0)
        sim.run()
        assert alarm.beeps == [5.0]

    def test_disarm_cancels(self, rig):
        sim, ex = rig
        alarm = ex.register(Alarm())
        alarm.arm(3.0)
        alarm.timer.disarm()
        sim.run()
        assert alarm.beeps == []

    def test_past_deadline_rejected(self, rig):
        sim, ex = rig
        alarm = ex.register(Alarm())
        alarm.timer.arm(5.0)
        sim.run_until(2.0)
        with pytest.raises(ValueError):
            alarm.timer.arm(1.0)
        # The refused arm changed nothing: the prior deadline still fires.
        assert alarm.timer.armed
        assert alarm.timer.deadline == 5.0
        sim.run()
        assert alarm.beeps == [5.0]

    def test_failed_automaton_skips_wakeup(self, rig):
        sim, ex = rig
        alarm = ex.register(Alarm())
        alarm.arm(3.0)
        sim.call_at(1.0, alarm.fail)
        sim.run()
        assert alarm.beeps == []

