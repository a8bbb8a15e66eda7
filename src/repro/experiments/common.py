"""One sweep for the experiments: §4.3's repeat protocol, written once."""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Sequence, Tuple

from ..bench.runner import run_local_once
from ..host.testbed import TestbedConfig
from ..obs.session import active_session
from ..sim.rand import run_seed
from ..stats import RunningSummary, SeriesSet


@contextmanager
def _sweep_context(context: dict):
    """Stamp the active obs session (if any) with the sweep point.

    Metric snapshots recorded inside the block carry a ``_context``
    entry naming the series and sweep position, so the trap-diagnosis
    detectors can group repeats of one configuration instead of
    comparing apples (2 readers) to oranges (32 readers).
    """
    session = active_session()
    if session is None:
        yield
        return
    previous = session.run_context
    session.run_context = context
    try:
        yield
    finally:
        session.run_context = previous


def sweep(figure: SeriesSet,
          configs: Sequence[Tuple[str, TestbedConfig]],
          xs: Sequence, point: Callable, runs: int, seed: int,
          offset: Callable = int,
          metric: str = "throughput_mb_s") -> SeriesSet:
    """Fill ``figure``: one series per ``(label, config)``, one point
    per x.

    Each point is the mean (σ) of ``runs`` repeats, every repeat on a
    fresh testbed: repeat ``run`` of ``x`` calls
    ``point(config.with_seed(run_seed(seed, run) + offset(x)), x)`` and
    folds the result's ``metric`` attribute.  Metric snapshots recorded
    meanwhile are stamped ``{"series": label, figure.xlabel: x}``.
    """
    for label, config in configs:
        series = figure.new_series(label)
        for x in xs:
            acc = RunningSummary()
            with _sweep_context({"series": label, figure.xlabel: x}):
                for run in range(runs):
                    result = point(
                        config.with_seed(run_seed(seed, run) + offset(x)),
                        x)
                    acc.add(getattr(result, metric))
            series.add(x, acc.freeze())
    return figure


def completion_distribution(title: str,
                            configs: Sequence[Tuple[str, TestbedConfig]],
                            nreaders: int = 8,
                            scale: float = 0.125, runs: int = 3,
                            seed: int = 0) -> SeriesSet:
    """Mean time for the k-th of ``nreaders`` processes to finish.

    This is Figure 3: per-process completion times under different disk
    schedulers, eight concurrent readers of 32 MB each.  One run yields
    every x, so this is its own loop rather than a :func:`sweep`.
    """
    figure = SeriesSet(title=title, xlabel="processes completed",
                       ylabel="Time to completion (s)")
    for label, config in configs:
        accumulators = [RunningSummary() for _ in range(nreaders)]
        with _sweep_context({"series": label, "readers": nreaders}):
            for run_index in range(runs):
                run_config = config.with_seed(run_seed(seed, run_index))
                result = run_local_once(run_config, nreaders, scale=scale)
                for position, finish in \
                        enumerate(result.completion_times()):
                    accumulators[position].add(finish)
        series = figure.new_series(label)
        for position, acc in enumerate(accumulators):
            series.add(position + 1, acc.freeze())
    return figure
