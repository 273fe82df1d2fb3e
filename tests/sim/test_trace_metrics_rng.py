"""Unit tests for trace log, metrics registry and RNG streams."""

import json

import pytest

from repro.sim import MetricsRegistry, RngRegistry, TraceLog
from repro.sim.rng import choice_excluding


class TestTraceLog:
    def test_records_in_order(self):
        log = TraceLog()
        log.record(1.0, "a", "send", "m1")
        log.record(2.0, "b", "recv", "m1")
        assert [r.kind for r in log] == ["send", "recv"]
        assert len(log) == 2

    def test_disabled_log_is_noop(self):
        log = TraceLog(enabled=False)
        log.record(1.0, "a", "send")
        assert len(log) == 0

    def test_filter_by_kind_source_time(self):
        log = TraceLog()
        log.record(1.0, "a", "send")
        log.record(2.0, "a", "recv")
        log.record(3.0, "b", "send")
        assert len(log.filter(kind="send")) == 2
        assert len(log.filter(source="a")) == 2
        assert len(log.filter(kind="send", source="b")) == 1
        assert len(log.filter(since=2.5)) == 1

    def test_capacity_evicts_oldest(self):
        log = TraceLog(capacity=2)
        for t in range(5):
            log.record(float(t), "a", "tick", t)
        assert [r.detail for r in log] == [3, 4]

    def test_capacity_shrink_keeps_newest(self):
        log = TraceLog()
        for t in range(5):
            log.record(float(t), "a", "tick", t)
        log.capacity = 2  # experiments shrink the log after construction
        assert log.capacity == 2
        assert [r.detail for r in log] == [3, 4]
        log.record(5.0, "a", "tick", 5)
        assert [r.detail for r in log] == [4, 5]

    def test_capacity_grow_and_unbound(self):
        log = TraceLog(capacity=1)
        log.record(0.0, "a", "tick", 0)
        log.capacity = 3
        for t in (1, 2, 3):
            log.record(float(t), "a", "tick", t)
        assert [r.detail for r in log] == [1, 2, 3]
        log.capacity = None
        for t in (4, 5):
            log.record(float(t), "a", "tick", t)
        assert [r.detail for r in log] == [1, 2, 3, 4, 5]

    def test_eviction_order_strictly_fifo(self):
        log = TraceLog(capacity=3)
        for t in range(10):
            log.record(float(t), "a", "tick", t)
            expected = list(range(max(0, t - 2), t + 1))
            assert [r.detail for r in log] == expected

    def test_subscriber_sees_all_records(self):
        log = TraceLog(capacity=1)
        seen = []
        log.subscribe(lambda rec: seen.append(rec.detail))
        for t in range(4):
            log.record(float(t), "a", "tick", t)
        assert seen == [0, 1, 2, 3]

    def test_kinds_histogram(self):
        log = TraceLog()
        log.record(1.0, "a", "send")
        log.record(1.0, "a", "send")
        log.record(1.0, "a", "recv")
        assert log.kinds() == {"send": 2, "recv": 1}


class TestMetrics:
    def test_counter_add(self):
        reg = MetricsRegistry()
        reg.counter("msgs").add()
        reg.counter("msgs").add(2.5)
        c = reg.counter("msgs")
        assert c.count == 2
        assert c.total == 3.5

    def test_state_is_sorted_and_json_safe(self):
        reg = MetricsRegistry()
        reg.counter("b").add(4.0)
        reg.counter("a").add()
        state = reg.state()
        assert list(state["counters"]) == ["a", "b"]
        assert state["counters"]["b"] == {"count": 1, "total": 4.0}
        assert json.loads(json.dumps(state)) == state


class TestRng:
    def test_same_seed_same_draws(self):
        a = RngRegistry(seed=7).stream("mobility")
        b = RngRegistry(seed=7).stream("mobility")
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_different_streams_are_independent(self):
        reg = RngRegistry(seed=7)
        first = [reg.stream("a").random() for _ in range(5)]
        reg2 = RngRegistry(seed=7)
        reg2.stream("b").random()  # interleave a draw on another stream
        second = [reg2.stream("a").random() for _ in range(5)]
        assert first == second

    def test_different_seeds_differ(self):
        a = RngRegistry(seed=1).stream("x")
        b = RngRegistry(seed=2).stream("x")
        assert [a.random() for _ in range(3)] != [b.random() for _ in range(3)]

    def test_names(self):
        reg = RngRegistry()
        reg.stream("b")
        reg.stream("a")
        assert reg.names() == ["a", "b"]

    def test_choice_excluding(self):
        reg = RngRegistry(seed=3)
        rng = reg.stream("c")
        for _ in range(20):
            assert choice_excluding(rng, [1, 2, 3], 2) != 2

    def test_choice_excluding_falls_back_when_only_option(self):
        rng = RngRegistry(seed=3).stream("c")
        assert choice_excluding(rng, [2], 2) == 2

    def test_choice_excluding_empty_raises(self):
        rng = RngRegistry(seed=3).stream("c")
        with pytest.raises(ValueError):
            choice_excluding(rng, [], None)
