"""Unit tests for the metrics registry (repro.obs.metrics)."""

import pytest

from repro.obs.metrics import (Counter, Gauge, HISTOGRAM_BOUNDS,
                               LatencyHistogram, MetricsRegistry,
                               NULL_REGISTRY, merge_snapshots,
                               render_snapshot)


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        counter = Counter("x")
        assert counter.value == 0
        counter.inc()
        counter.inc(4)
        assert counter.value == 5


class TestGauge:
    def test_callable_gauge_is_lazy(self):
        state = {"v": 1.0}
        gauge = Gauge("depth", lambda: state["v"])
        assert gauge.read() == 1.0
        state["v"] = 7.5
        assert gauge.read() == 7.5


class TestLatencyHistogram:
    def test_empty(self):
        hist = LatencyHistogram("lat")
        assert hist.count == 0
        assert hist.mean == 0.0
        assert hist.snapshot()["buckets"] == {}

    def test_observations(self):
        hist = LatencyHistogram("lat")
        for value in (0.001, 0.002, 0.003):
            hist.observe(value)
        assert hist.count == 3
        assert hist.total == pytest.approx(0.006)
        assert hist.min == 0.001
        assert hist.max == 0.003
        assert hist.mean == pytest.approx(0.002)

    def test_bucket_placement_is_upper_bound_inclusive(self):
        hist = LatencyHistogram("lat")
        # Exactly on the first bound (1 µs) lands in the first bucket.
        hist.observe(HISTOGRAM_BOUNDS[0])
        assert hist.buckets[0] == 1
        # Just above it lands in the second.
        hist.observe(HISTOGRAM_BOUNDS[0] * 1.5)
        assert hist.buckets[1] == 1

    def test_overflow_bucket(self):
        hist = LatencyHistogram("lat")
        hist.observe(HISTOGRAM_BOUNDS[-1] * 2)
        assert hist.snapshot()["buckets"] == {"overflow": 1}

    def test_bucket_counts_sum_to_count(self):
        hist = LatencyHistogram("lat")
        for value in (1e-7, 1e-3, 0.5, 100.0, 1e-3):
            hist.observe(value)
        assert sum(hist.buckets) == hist.count == 5
        snap = hist.snapshot()
        assert sum(snap["buckets"].values()) == 5


class TestMetricsRegistry:
    def test_create_on_first_use_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("c") is registry.counter("c")
        assert registry.gauge("g", lambda: 0.0) is \
            registry.gauge("g", lambda: 1.0)
        assert registry.histogram("h") is registry.histogram("h")

    def test_enabled(self):
        assert MetricsRegistry().enabled is True

    def test_snapshot_shape_and_sorted_keys(self):
        registry = MetricsRegistry()
        registry.counter("b.count").inc(2)
        registry.counter("a.count").inc()
        registry.gauge("depth", lambda: 3.0)
        registry.histogram("lat").observe(0.01)
        snap = registry.snapshot()
        assert list(snap) == ["counters", "gauges", "histograms"]
        assert list(snap["counters"]) == ["a.count", "b.count"]
        assert snap["counters"]["b.count"] == 2
        assert snap["gauges"]["depth"] == 3.0
        assert snap["histograms"]["lat"]["count"] == 1

    def test_render_mentions_each_section(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.gauge("g", lambda: 1.0)
        registry.histogram("h").observe(0.5)
        text = registry.render()
        assert "counters:" in text
        assert "gauges:" in text
        assert "histograms" in text
        assert "(no metrics recorded)" == render_snapshot({})


class TestMergeSnapshots:
    def _registry(self, scale):
        registry = MetricsRegistry()
        registry.counter("ops").inc(10 * scale)
        registry.gauge("depth", lambda: 2.0 * scale)
        hist = registry.histogram("lat")
        hist.observe(0.001 * scale)
        hist.observe(0.002 * scale)
        return registry.snapshot()

    def test_counters_sum_gauges_average(self):
        merged = merge_snapshots([self._registry(1), self._registry(3)])
        assert merged["counters"]["ops"] == 40
        assert merged["gauges"]["depth"] == pytest.approx(4.0)

    def test_histograms_merge(self):
        merged = merge_snapshots([self._registry(1), self._registry(3)])
        hist = merged["histograms"]["lat"]
        assert hist["count"] == 4
        assert hist["sum"] == pytest.approx(0.012)
        assert hist["min"] == 0.001
        assert hist["max"] == 0.006
        assert hist["mean"] == pytest.approx(0.003)
        assert sum(hist["buckets"].values()) == 4

    def test_empty_merge(self):
        assert merge_snapshots([]) == {
            "counters": {}, "gauges": {}, "histograms": {}}


class TestNullRegistry:
    def test_disabled_and_shared(self):
        assert NULL_REGISTRY.enabled is False
        assert NULL_REGISTRY.counter("a") is NULL_REGISTRY.counter("b")
        assert NULL_REGISTRY.histogram("a") is NULL_REGISTRY.histogram("b")

    def test_noop_instruments(self):
        counter = NULL_REGISTRY.counter("x")
        counter.inc(5)
        assert counter.value == 0
        hist = NULL_REGISTRY.histogram("x")
        hist.observe(1.0)
        assert hist.count == 0
        gauge = NULL_REGISTRY.gauge("x", lambda: 9.0)
        assert gauge.read() == 0.0

    def test_empty_snapshot(self):
        assert NULL_REGISTRY.snapshot() == {}
        assert "disabled" in NULL_REGISTRY.render()
