"""Service-level metrics over merged per-find records.

Input shape: the ``finds`` dict produced by
:meth:`~repro.sim.sharded.context.ShardContext.report` /
:meth:`~repro.sim.sharded.core.ShardedSimulator` merge — per find id a
dict with ``object_id``, ``issued_at``, ``deadline``, ``completed``,
``latency``, ``work`` and (post-merge) ``deadline_missed``.

All quantities are in simulation time; wall-clock never enters a
metric, so metrics are seed-deterministic and K-invariant exactly when
the underlying run is.
"""

from __future__ import annotations

from math import sqrt
from typing import Any, Dict, List, Optional


def latency_percentiles(latencies: List[float]) -> Dict[str, Optional[float]]:
    """p50/p95/p99 + mean + jitter of a latency sample.

    Percentiles use linear interpolation between order statistics;
    jitter is the population standard deviation.  All ``None`` for an
    empty sample.
    """
    if not latencies:
        return {"p50": None, "p95": None, "p99": None, "mean": None, "jitter": None}
    values = sorted(latencies)

    def pct(q: float) -> float:
        if len(values) == 1:
            return values[0]
        pos = (q / 100.0) * (len(values) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(values) - 1)
        frac = pos - lo
        return values[lo] * (1.0 - frac) + values[hi] * frac

    mean = sum(values) / len(values)
    variance = sum((v - mean) ** 2 for v in values) / len(values)
    return {
        "p50": pct(50.0),
        "p95": pct(95.0),
        "p99": pct(99.0),
        "mean": mean,
        "jitter": sqrt(variance),
    }


def handover_summary(handovers: Dict[int, int]) -> Dict[str, Any]:
    """Bucketed summary of per-object handover counts.

    Replaces the verbatim per-object map in the bench artifact (100
    keys at M=100, 10k at M=10k) with min/mean/max plus a histogram
    over power-of-two buckets (``0``, ``1``, ``2-3``, ``4-7``, ...).
    Derived purely from sim-time quantities, so it stays K-invariant.
    """
    counts = sorted(handovers.values())
    if not counts:
        return {
            "objects": 0, "min": None, "mean": None, "max": None,
            "histogram": {},
        }
    histogram: Dict[str, int] = {}
    for value in counts:
        if value < 2:
            label = str(value)
        else:
            lo = 1 << (value.bit_length() - 1)
            label = f"{lo}-{2 * lo - 1}"
        histogram[label] = histogram.get(label, 0) + 1
    return {
        "objects": len(counts),
        "min": counts[0],
        "mean": sum(counts) / len(counts),
        "max": counts[-1],
        "histogram": histogram,
    }


def service_metrics(
    finds: Dict[int, dict],
    handovers: Optional[Dict[int, int]] = None,
) -> Dict[str, Any]:
    """Aggregate per-find records into the service metric block.

    Throughput is completed finds per sim time unit over the service
    makespan (first issue to last completion).  The deadline-miss rate
    is over finds that *carry* a deadline; an uncompleted find with a
    deadline counts as missed (dropping queries cannot improve it).
    ``None`` when no find carries a deadline.
    """
    records = list(finds.values())
    completed = [r for r in records if r["completed"]]
    latencies = [r["latency"] for r in completed]
    with_deadline = [r for r in records if r.get("deadline") is not None]
    missed = sum(1 for r in with_deadline if r.get("deadline_missed"))
    throughput = 0.0
    if completed:
        first = min(r["issued_at"] for r in records)
        last = max(r["issued_at"] + r["latency"] for r in completed)
        makespan = max(last - first, 1e-9)
        throughput = len(completed) / makespan
    handovers = handovers or {}
    return {
        "finds_issued": len(records),
        "finds_completed": len(completed),
        "completion_rate": (
            len(completed) / len(records) if records else 1.0
        ),
        "latency": latency_percentiles(latencies),
        "throughput_per_time": throughput,
        "deadline_miss_rate": (
            missed / len(with_deadline) if with_deadline else None
        ),
        "deadlines_set": len(with_deadline),
        "deadlines_missed": missed,
        "handovers_total": sum(handovers.values()),
        "handovers": handover_summary(handovers),
        "mean_find_work": (
            sum(r["work"] for r in records) / len(records) if records else 0.0
        ),
    }
