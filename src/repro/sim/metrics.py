"""Named counters for instrumentation.

The :class:`MetricsRegistry` is what the obs collector counts typed
events and conformance violations in: components bump counters by name,
the ``obs/1`` exporter reads :meth:`MetricsRegistry.state` afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict


@dataclass
class Counter:
    """Monotone counter with a running sum of weights."""

    name: str
    count: int = 0
    total: float = 0.0

    def add(self, weight: float = 1.0) -> None:
        self.count += 1
        self.total += weight


class MetricsRegistry:
    """Named counters, created on first use."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}

    def counter(self, name: str) -> Counter:
        if name not in self._counters:
            self._counters[name] = Counter(name)
        return self._counters[name]

    def counters(self) -> Dict[str, Counter]:
        return dict(self._counters)

    def state(self) -> Dict[str, Any]:
        """JSON-safe state: counter name -> count and total, sorted."""
        return {
            "counters": {
                n: {"count": c.count, "total": c.total}
                for n, c in sorted(self._counters.items())
            },
        }
