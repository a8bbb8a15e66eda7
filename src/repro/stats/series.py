"""Containers for figure-style results.

A :class:`Series` is one line on one of the paper's plots — a label plus
(x, Summary) points.  A :class:`SeriesSet` is a whole figure.  Both render
to aligned ASCII tables so a benchmark run prints the same rows the paper
plots.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from .summary import Summary


@dataclass
class Series:
    """One labelled curve: e.g. ``ide1`` throughput vs reader count."""

    label: str
    points: List[Tuple[float, Summary]] = field(default_factory=list)

    def add(self, x: float, summary: Summary) -> None:
        self.points.append((x, summary))

    @property
    def xs(self) -> List[float]:
        return [x for x, _ in self.points]

    @property
    def means(self) -> List[float]:
        return [s.mean for _, s in self.points]

    def at(self, x: float) -> Summary:
        for px, summary in self.points:
            if px == x:
                return summary
        raise KeyError(f"no point at x={x} in series {self.label!r}")


@dataclass
class SeriesSet:
    """A figure: a title, an x-axis label, and several series."""

    title: str
    xlabel: str = "x"
    ylabel: str = "Throughput (MB/s)"
    series: List[Series] = field(default_factory=list)
    #: Optional per-run records behind the summarised points (plain
    #: JSON-ready dicts).  Experiments that keep raw counters worth
    #: publishing — e.g. ``xfaults``'s per-run retransmit and recovery
    #: counts — append them here; the CLI's ``--detail-out`` writes
    #: them to a file.  Rendering ignores this field entirely.
    detail: List[dict] = field(default_factory=list)

    def new_series(self, label: str) -> Series:
        s = Series(label)
        self.series.append(s)
        return s

    def get(self, label: str) -> Series:
        for s in self.series:
            if s.label == label:
                return s
        raise KeyError(f"no series {label!r} in {self.title!r}")

    @property
    def labels(self) -> List[str]:
        return [s.label for s in self.series]

    def mean(self, label: str, x: float) -> float:
        """The mean of series ``label`` at ``x``."""
        return self.get(label).at(x).mean

    def render(self, precision: int = 2, show_std: bool = True) -> str:
        """Render the figure as an aligned ASCII table.

        Rows are x values, columns are series; each cell is
        ``mean (std)`` as in the paper's Table 1.
        """
        xs: List[float] = []
        for s in self.series:
            for x in s.xs:
                if x not in xs:
                    xs.append(x)
        xs.sort()

        def cell(series: Series, x: float) -> str:
            try:
                summary = series.at(x)
            except KeyError:
                return "-"
            if show_std:
                return (f"{summary.mean:.{precision}f} "
                        f"({summary.std:.{precision}f})")
            return f"{summary.mean:.{precision}f}"

        header = [self.xlabel] + self.labels
        rows = [[self._fmt_x(x)] + [cell(s, x) for s in self.series]
                for x in xs]
        widths = [max(len(str(row[i])) for row in [header] + rows)
                  for i in range(len(header))]
        lines = [self.title, self.ylabel]
        lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths)))
        lines.append("  ".join("-" * w for w in widths))
        for row in rows:
            lines.append("  ".join(str(c).ljust(w)
                                   for c, w in zip(row, widths)))
        return "\n".join(lines)

    @staticmethod
    def _fmt_x(x: float) -> str:
        if float(x).is_integer():
            return str(int(x))
        return f"{x:g}"
