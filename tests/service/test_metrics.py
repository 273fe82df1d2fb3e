"""Unit tests for the service metric aggregation."""

import pytest

from repro.service import latency_percentiles, service_metrics
from repro.service.metrics import handover_summary


def record(
    object_id=0, issued_at=0.0, completed=True, latency=5.0,
    work=10.0, deadline=None, deadline_missed=False,
):
    return {
        "object_id": object_id,
        "issued_at": issued_at,
        "completed": completed,
        "latency": latency if completed else None,
        "work": work,
        "deadline": deadline,
        "deadline_missed": deadline_missed,
    }


class TestLatencyPercentiles:
    def test_empty_sample_is_all_none(self):
        assert latency_percentiles([]) == {
            "p50": None, "p95": None, "p99": None, "mean": None, "jitter": None
        }

    def test_single_sample(self):
        stats = latency_percentiles([4.0])
        assert stats["p50"] == stats["p95"] == stats["p99"] == 4.0
        assert stats["mean"] == 4.0
        assert stats["jitter"] == 0.0

    def test_percentiles_interpolate_and_order(self):
        stats = latency_percentiles([1.0, 2.0, 3.0, 4.0])
        assert stats["p50"] == 2.5
        assert stats["p50"] <= stats["p95"] <= stats["p99"] <= 4.0
        assert stats["mean"] == 2.5

    def test_jitter_is_population_stddev(self):
        stats = latency_percentiles([2.0, 4.0])
        assert stats["jitter"] == pytest.approx(1.0)

    def test_order_independent(self):
        assert latency_percentiles([3.0, 1.0, 2.0]) == latency_percentiles(
            [1.0, 2.0, 3.0]
        )


class TestHandoverSummary:
    def test_empty(self):
        assert handover_summary({}) == {
            "objects": 0, "min": None, "mean": None, "max": None,
            "histogram": {},
        }

    def test_power_of_two_buckets(self):
        summary = handover_summary({0: 0, 1: 1, 2: 2, 3: 3, 4: 4, 5: 9})
        assert summary["objects"] == 6
        assert summary["min"] == 0
        assert summary["max"] == 9
        assert summary["mean"] == pytest.approx(19 / 6)
        assert summary["histogram"] == {
            "0": 1, "1": 1, "2-3": 2, "4-7": 1, "8-15": 1,
        }

    def test_size_independent_of_object_count(self):
        # The whole point: 10k objects with similar counts collapse to
        # a handful of buckets instead of 10k artifact keys.
        summary = handover_summary({i: 4 + (i % 4) for i in range(10_000)})
        assert summary["objects"] == 10_000
        assert summary["histogram"] == {"4-7": 10_000}


class TestServiceMetrics:
    def test_counts_and_rates(self):
        finds = {
            1: record(latency=2.0),
            2: record(latency=6.0),
            3: record(completed=False),
        }
        metrics = service_metrics(finds, {0: 4})
        assert metrics["finds_issued"] == 3
        assert metrics["finds_completed"] == 2
        assert metrics["completion_rate"] == pytest.approx(2 / 3)
        assert metrics["handovers_total"] == 4
        assert metrics["handovers"] == {
            "objects": 1, "min": 4, "mean": 4.0, "max": 4,
            "histogram": {"4-7": 1},
        }
        assert metrics["mean_find_work"] == pytest.approx(10.0)

    def test_empty_finds(self):
        metrics = service_metrics({})
        assert metrics["finds_issued"] == 0
        assert metrics["completion_rate"] == 1.0
        assert metrics["throughput_per_time"] == 0.0
        assert metrics["deadline_miss_rate"] is None
        assert metrics["latency"]["p50"] is None

    def test_throughput_over_makespan(self):
        finds = {
            1: record(issued_at=10.0, latency=5.0),
            2: record(issued_at=20.0, latency=10.0),  # done at 30
        }
        metrics = service_metrics(finds)
        assert metrics["throughput_per_time"] == pytest.approx(2 / 20.0)

    def test_deadline_accounting(self):
        finds = {
            1: record(deadline=10.0, latency=5.0),
            2: record(deadline=10.0, latency=15.0, deadline_missed=True),
            3: record(deadline=10.0, completed=False, deadline_missed=True),
            4: record(),  # no deadline: excluded from the miss rate
        }
        metrics = service_metrics(finds)
        assert metrics["deadlines_set"] == 3
        assert metrics["deadlines_missed"] == 2
        assert metrics["deadline_miss_rate"] == pytest.approx(2 / 3)

    def test_wall_clock_never_enters_metrics(self):
        # Every metric must be derivable from sim-time fields alone —
        # the plain ≡ sharded metric-block equality in
        # tests/service/test_service.py::TestKInvariance relies on it.
        finds = {1: record()}
        a = service_metrics(dict(finds), {0: 1})
        b = service_metrics(dict(finds), {0: 1})
        assert a == b
