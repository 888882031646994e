"""Metrics collection for experiments.

Experiments, the perf workloads and the pool's router and manager
count events in a simulator's :class:`MetricRegistry`.  Two
instrument types cover the paper's evaluation needs:

* :class:`Counter` — monotonically increasing event counts
  (transactions confirmed, attacks detected, nonces rejected).
* :class:`Histogram` — full distributions with quantile queries
  (end-to-end latency, throughput series).
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Tuple


class Counter:
    """A monotonically increasing counter."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def increment(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only move forward; use a Histogram")
        self.value += amount

    def __repr__(self) -> str:
        return f"Counter({self.name!r}, value={self.value})"


class Histogram:
    """Stores raw observations; supports mean/quantile/summary queries."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._values: List[float] = []

    def observe(self, value: float) -> None:
        self._values.append(float(value))

    def observe_many(self, values: Iterable[float]) -> None:
        for value in values:
            self.observe(value)

    @property
    def count(self) -> int:
        return len(self._values)

    @property
    def values(self) -> Tuple[float, ...]:
        return tuple(self._values)

    def mean(self) -> float:
        if not self._values:
            raise ValueError(f"histogram {self.name!r} is empty")
        # fsum is exactly rounded over the multiset, so the mean does
        # not depend on observation order: two runs that record the
        # same latencies in a different interleaving report the same
        # bits.
        return math.fsum(self._values) / len(self._values)

    def quantile(self, q: float) -> float:
        if not self._values:
            raise ValueError(f"histogram {self.name!r} is empty")
        if not 0 <= q <= 1:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        ordered = sorted(self._values)
        position = q * (len(ordered) - 1)
        index = int(position)
        frac = position - index
        if index + 1 >= len(ordered):
            return ordered[-1]
        return ordered[index] * (1 - frac) + ordered[index + 1] * frac

    def minimum(self) -> float:
        if not self._values:
            raise ValueError(f"histogram {self.name!r} is empty")
        return min(self._values)

    def maximum(self) -> float:
        if not self._values:
            raise ValueError(f"histogram {self.name!r} is empty")
        return max(self._values)

    def summary(self) -> Dict[str, float]:
        """Return the standard table row: count/mean/p50/p95/p99/min/max."""
        return {
            "count": float(self.count),
            "mean": self.mean(),
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
            "min": self.minimum(),
            "max": self.maximum(),
        }

    def __repr__(self) -> str:
        return f"Histogram({self.name!r}, count={self.count})"


class MetricRegistry:
    """Namespace of counters and histograms keyed by name."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        if name not in self._counters:
            self._counters[name] = Counter(name)
        return self._counters[name]

    def histogram(self, name: str) -> Histogram:
        if name not in self._histograms:
            self._histograms[name] = Histogram(name)
        return self._histograms[name]

    def counters(self) -> Dict[str, int]:
        return {name: c.value for name, c in sorted(self._counters.items())}

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """All histogram summaries plus counters, for experiment reports."""
        report: Dict[str, Dict[str, float]] = {}
        for name, histogram in sorted(self._histograms.items()):
            if histogram.count:
                report[name] = histogram.summary()
        for name, counter in sorted(self._counters.items()):
            report[f"counter:{name}"] = {"count": float(counter.value)}
        return report
