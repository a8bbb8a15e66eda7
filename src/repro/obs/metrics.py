"""Counters, gauges, and latency histograms for the simulated stack.

A :class:`MetricsRegistry` is a per-run namespace of named instruments
that components register into: queue depths for the nfsiod/nfsd pools
and the kernel bufq, cache hit ratios for the buffer cache and the
drive's firmware cache, RPC retransmit and dupreq counters, per-zone
disk throughput, and per-layer latency histograms.

Two design rules keep the registry safe to wire into every layer:

* **No perturbation.**  Instruments only read the simulation clock and
  update plain Python numbers; they never draw randomness, create
  events, or otherwise touch simulator state.  A run with metrics on is
  bit-identical to the same run with metrics off.
* **Zero cost when disabled.**  The disabled registry
  (:data:`NULL_REGISTRY`) hands out shared no-op instruments, so
  instrumented code holds a reference and calls ``observe()``/``inc()``
  unconditionally — with metrics off those calls do nothing and
  allocate nothing.

Gauges are *pull*-style: they wrap a callable that is evaluated only
when a snapshot is taken, so sampling queue depths costs nothing during
the simulation itself.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Callable, Dict, List

#: Histogram bucket upper bounds in seconds: 1 µs, 2 µs, 4 µs, ... ~67 s,
#: plus an implicit overflow bucket.  Log-spaced, like the tick-based
#: histograms kernel instrumentation keeps.
HISTOGRAM_BOUNDS = tuple(1e-6 * 2.0 ** i for i in range(27))


class Counter:
    """A monotonically increasing named count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n


class Gauge:
    """A point-in-time reading of a wrapped callable.

    The callable is evaluated lazily at :meth:`read` /
    ``registry.snapshot()`` time only.
    """

    __slots__ = ("name", "_fn")

    def __init__(self, name: str, fn: Callable[[], float]):
        self.name = name
        self._fn = fn

    def read(self) -> float:
        return float(self._fn())


class LatencyHistogram:
    """A log-bucketed histogram of durations in seconds.

    Buckets are fixed (:data:`HISTOGRAM_BOUNDS`), so merging snapshots
    from repeated runs is a plain element-wise sum.
    """

    __slots__ = ("name", "count", "total", "min", "max", "buckets")

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = 0.0
        self.max = 0.0
        self.buckets: List[int] = [0] * (len(HISTOGRAM_BOUNDS) + 1)

    def observe(self, seconds: float) -> None:
        if self.count == 0:
            self.min = seconds
            self.max = seconds
        else:
            if seconds < self.min:
                self.min = seconds
            if seconds > self.max:
                self.max = seconds
        self.count += 1
        self.total += seconds
        # bisect_left keeps the ``le_<bound>`` labels honest: a value
        # exactly on a bound counts in that bound's bucket.
        self.buckets[bisect_left(HISTOGRAM_BOUNDS, seconds)] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def snapshot(self) -> dict:
        filled = {}
        for index, n in enumerate(self.buckets):
            if n == 0:
                continue
            if index < len(HISTOGRAM_BOUNDS):
                label = f"le_{HISTOGRAM_BOUNDS[index]:.3e}"
            else:
                label = "overflow"
            filled[label] = n
        return {"count": self.count, "sum": self.total,
                "min": self.min, "max": self.max, "mean": self.mean,
                "buckets": filled}


class MetricsRegistry:
    """A namespace of instruments, snapshottable as a plain dict.

    ``counter`` / ``gauge`` / ``histogram`` create on first use and
    return the existing instrument thereafter, so every layer can ask
    for its instruments without coordination.
    """

    enabled = True

    def __init__(self):
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, LatencyHistogram] = {}

    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str, fn: Callable[[], float]) -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = self._gauges[name] = Gauge(name, fn)
        else:
            instrument._fn = fn
        return instrument

    def histogram(self, name: str) -> LatencyHistogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms[name] = LatencyHistogram(name)
        return instrument

    def snapshot(self) -> dict:
        """Everything, as a deterministic (sorted-key) nested dict."""
        return {
            "counters": {name: self._counters[name].value
                         for name in sorted(self._counters)},
            "gauges": {name: self._gauges[name].read()
                       for name in sorted(self._gauges)},
            "histograms": {name: self._histograms[name].snapshot()
                           for name in sorted(self._histograms)},
        }

    def render(self) -> str:
        """A human-readable metrics block (for the CLI)."""
        snap = self.snapshot()
        return render_snapshot(snap)


def render_snapshot(snap: dict) -> str:
    """Render one snapshot (or a merged one) as aligned text."""
    lines: List[str] = []
    counters = snap.get("counters", {})
    gauges = snap.get("gauges", {})
    histograms = snap.get("histograms", {})
    if counters:
        lines.append("counters:")
        for name in sorted(counters):
            lines.append(f"  {name:40s} {counters[name]}")
    if gauges:
        lines.append("gauges:")
        for name in sorted(gauges):
            lines.append(f"  {name:40s} {gauges[name]:.6g}")
    if histograms:
        lines.append("histograms (count / sum s / mean s):")
        for name in sorted(histograms):
            h = histograms[name]
            lines.append(f"  {name:40s} {h['count']:>8d} "
                         f"{h['sum']:.6f} {h['mean']:.6g}")
    return "\n".join(lines) if lines else "(no metrics recorded)"


def merge_snapshots(snapshots) -> dict:
    """Merge per-run snapshots: counters/histograms sum, gauges average."""
    snapshots = list(snapshots)
    merged: dict = {"counters": {}, "gauges": {}, "histograms": {}}
    if not snapshots:
        return merged
    gauge_sums: Dict[str, List[float]] = {}
    for snap in snapshots:
        for name, value in snap.get("counters", {}).items():
            merged["counters"][name] = \
                merged["counters"].get(name, 0) + value
        for name, value in snap.get("gauges", {}).items():
            gauge_sums.setdefault(name, []).append(value)
        for name, h in snap.get("histograms", {}).items():
            into = merged["histograms"].get(name)
            if into is None:
                merged["histograms"][name] = {
                    "count": h["count"], "sum": h["sum"],
                    "min": h["min"], "max": h["max"], "mean": h["mean"],
                    "buckets": dict(h["buckets"])}
                continue
            into["count"] += h["count"]
            into["sum"] += h["sum"]
            into["min"] = min(into["min"], h["min"])
            into["max"] = max(into["max"], h["max"])
            into["mean"] = (into["sum"] / into["count"]
                            if into["count"] else 0.0)
            for label, n in h["buckets"].items():
                into["buckets"][label] = into["buckets"].get(label, 0) + n
    for name, values in gauge_sums.items():
        merged["gauges"][name] = sum(values) / len(values)
    return merged


# ---------------------------------------------------------------------------
# Disabled (null) instruments
# ---------------------------------------------------------------------------

class _NullCounter:
    __slots__ = ()
    name = "null"
    value = 0

    def inc(self, n: int = 1) -> None:
        pass


class _NullGauge:
    __slots__ = ()
    name = "null"

    def read(self) -> float:
        return 0.0


class _NullHistogram:
    __slots__ = ()
    name = "null"
    count = 0
    total = 0.0
    min = 0.0
    max = 0.0
    mean = 0.0

    def observe(self, seconds: float) -> None:
        pass

    def snapshot(self) -> dict:
        return {"count": 0, "sum": 0.0, "min": 0.0, "max": 0.0,
                "mean": 0.0, "buckets": {}}


class NullMetricsRegistry:
    """The disabled registry: shared no-op instruments, empty snapshots."""

    enabled = False

    _counter = _NullCounter()
    _gauge = _NullGauge()
    _histogram = _NullHistogram()

    def counter(self, name: str) -> _NullCounter:
        return self._counter

    def gauge(self, name: str, fn) -> _NullGauge:
        return self._gauge

    def histogram(self, name: str) -> _NullHistogram:
        return self._histogram

    def snapshot(self) -> dict:
        return {}

    def render(self) -> str:
        return "(metrics disabled)"


#: Shared disabled registry: safe to hand to any number of simulators.
NULL_REGISTRY = NullMetricsRegistry()
