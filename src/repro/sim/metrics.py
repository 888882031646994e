"""Metrics collection for experiments.

Every benchmark in `benchmarks/` reads its numbers from a
:class:`MetricRegistry`.  Three instrument types cover the paper's
evaluation needs:

* :class:`Counter` — monotonically increasing event counts
  (transactions confirmed, attacks detected, nonces rejected).
* :class:`Timer` — interval measurements in virtual seconds with a
  breakdown label (the session-latency breakdown tables).
* :class:`Histogram` — full distributions with quantile queries
  (end-to-end latency, throughput series).
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Tuple

from repro.sim.clock import VirtualClock


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

    def stdev(self) -> float:
        if len(self._values) < 2:
            return 0.0
        mu = self.mean()
        return math.sqrt(
            math.fsum((v - mu) ** 2 for v in self._values)
            / (len(self._values) - 1)
        )

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


class Timer:
    """Measures virtual-time intervals and records them in a histogram."""

    def __init__(self, name: str, clock: VirtualClock) -> None:
        self.name = name
        self._clock = clock
        self.histogram = Histogram(name)
        self._started_at: Optional[float] = None

    def start(self) -> None:
        if self._started_at is not None:
            raise RuntimeError(f"timer {self.name!r} already running")
        self._started_at = self._clock.now

    def stop(self) -> float:
        if self._started_at is None:
            raise RuntimeError(f"timer {self.name!r} is not running")
        elapsed = self._clock.now - self._started_at
        self._started_at = None
        self.histogram.observe(elapsed)
        return elapsed

    def record(self, seconds: float) -> None:
        """Record an externally measured interval."""
        self.histogram.observe(seconds)

    def __enter__(self) -> "Timer":
        self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()


class MetricRegistry:
    """Namespace of counters, timers and histograms keyed by name."""

    def __init__(self, clock: VirtualClock) -> None:
        self._clock = clock
        self._counters: Dict[str, Counter] = {}
        self._timers: Dict[str, Timer] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        if name not in self._counters:
            self._counters[name] = Counter(name)
        return self._counters[name]

    def timer(self, name: str) -> Timer:
        if name not in self._timers:
            self._timers[name] = Timer(name, self._clock)
        return self._timers[name]

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
        for name, timer in sorted(self._timers.items()):
            if timer.histogram.count:
                report[f"timer:{name}"] = timer.histogram.summary()
        for name, counter in sorted(self._counters.items()):
            report[f"counter:{name}"] = {"count": float(counter.value)}
        return report
