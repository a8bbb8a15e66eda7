"""Streaming statistical summaries (Welford's algorithm).

The paper reports each point as the mean of at least ten runs and quotes
standard deviations (e.g. Table 1).  :class:`RunningSummary` accumulates
those statistics in one pass without storing samples; :class:`Summary` is
the frozen result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable


@dataclass(frozen=True)
class Summary:
    """Frozen summary statistics of a sample."""

    count: int
    mean: float
    std: float
    minimum: float
    maximum: float

    @property
    def sem(self) -> float:
        """Standard error of the mean."""
        if self.count < 1:
            return float("nan")
        return self.std / math.sqrt(self.count)

    def ci95(self) -> float:
        """Half-width of a normal-approximation 95 % confidence interval."""
        return 1.96 * self.sem

    @property
    def relative_std(self) -> float:
        """std / mean — the paper's "< 5 % of the mean" criterion."""
        if self.mean == 0:
            return float("inf")
        return self.std / abs(self.mean)

    def __str__(self) -> str:
        return f"{self.mean:.2f} ({self.std:.2f})"


class RunningSummary:
    """One-pass mean/variance accumulator (numerically stable)."""

    def __init__(self):
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self._min = math.inf
        self._max = -math.inf

    def add(self, value: float) -> None:
        self.count += 1
        delta = value - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (value - self._mean)
        self._min = min(self._min, value)
        self._max = max(self._max, value)

    def extend(self, values: Iterable[float]) -> None:
        for value in values:
            self.add(value)

    @property
    def mean(self) -> float:
        return self._mean if self.count else float("nan")

    @property
    def variance(self) -> float:
        """Sample variance (n - 1 denominator)."""
        if self.count < 2:
            return 0.0
        return self._m2 / (self.count - 1)

    @property
    def std(self) -> float:
        return math.sqrt(self.variance)

    def freeze(self) -> Summary:
        if self.count == 0:
            raise ValueError("cannot summarise an empty sample")
        return Summary(count=self.count, mean=self.mean, std=self.std,
                       minimum=self._min, maximum=self._max)


def summarize(values: Iterable[float]) -> Summary:
    """Convenience: summarise an iterable in one call."""
    acc = RunningSummary()
    acc.extend(values)
    return acc.freeze()
