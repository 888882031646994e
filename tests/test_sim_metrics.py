"""MetricRegistry, Counter and Histogram behavior."""

from __future__ import annotations

import pytest

from repro.sim.metrics import Histogram, MetricRegistry


@pytest.fixture
def registry():
    return MetricRegistry()


class TestRegistry:
    def test_duplicate_names_reuse_instrument(self, registry):
        assert registry.counter("a") is registry.counter("a")
        assert registry.histogram("h") is registry.histogram("h")

    def test_same_name_different_kinds_are_distinct(self, registry):
        # Namespaces are per-kind: a counter "x" and histogram "x" coexist.
        registry.counter("x").increment()
        registry.histogram("x").observe(1.0)
        assert registry.counter("x").value == 1
        assert registry.histogram("x").count == 1

    def test_counter_rejects_negative(self, registry):
        with pytest.raises(ValueError):
            registry.counter("c").increment(-1)

    def test_snapshot_skips_empty_histograms(self, registry):
        registry.histogram("empty")
        registry.histogram("full").observe(2.0)
        snap = registry.snapshot()
        assert "full" in snap
        assert "empty" not in snap

    def test_snapshot_includes_counters_and_timers(self, registry):
        registry.counter("events").increment(3)
        snap = registry.snapshot()
        assert snap["counter:events"]["count"] == 3.0


class TestHistogram:
    def test_empty_histogram_queries_raise(self):
        hist = Histogram("empty")
        for query in (hist.mean, hist.minimum, hist.maximum):
            with pytest.raises(ValueError):
                query()
        with pytest.raises(ValueError):
            hist.quantile(0.5)

    def test_quantile_bounds(self):
        hist = Histogram("h")
        hist.observe_many([1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            hist.quantile(1.5)
        assert hist.quantile(0.0) == 1.0
        assert hist.quantile(1.0) == 3.0

    def test_quantile_interpolates(self):
        hist = Histogram("h")
        hist.observe_many([0.0, 10.0])
        assert hist.quantile(0.95) == pytest.approx(9.5)

    def test_summary_keys(self):
        hist = Histogram("h")
        hist.observe_many(range(100))
        summary = hist.summary()
        assert set(summary) == {"count", "mean", "p50", "p95", "p99", "min", "max"}
        assert summary["count"] == 100.0
