"""Experiment registry: one entry per paper figure/table.

Each experiment module registers a callable ``run(scale, runs, seed)``
returning a :class:`~repro.stats.series.SeriesSet`, plus the paper
claims its figure must show; the CLI, the shape tests and the
benchmark harness discover experiments here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Sequence, Tuple

from ..stats import SeriesSet


@dataclass(frozen=True)
class Claim:
    """One shape the paper reports.  ``holds`` takes figures by
    experiment id (a claim may compare its figure with another's) and
    returns a ``bool``; ids are ``<experiment>/<slug>``."""

    id: str
    text: str
    holds: Callable[[Mapping[str, SeriesSet]], bool]

    def report(self, figures: Mapping[str, SeriesSet]) -> str:
        """The claim and every figure it reads: a failed check's message."""
        log = _ReadLog(figures)
        self.holds(log)
        return "\n\n".join([f"{self.id}: {self.text}"]
                           + [figures[key].render()
                              for key in dict.fromkeys(log.read)])


class _ReadLog(dict):
    """Figures by experiment id, logging every id read."""

    def __init__(self, figures: Mapping[str, SeriesSet]):
        super().__init__(figures)
        self.read: List[str] = []

    def __getitem__(self, key: str) -> SeriesSet:
        self.read.append(key)
        return super().__getitem__(key)


@dataclass(frozen=True)
class Experiment:
    """A registered reproduction target."""

    id: str
    title: str
    paper_claim: str
    runner: Callable[..., SeriesSet]
    claims: Tuple[Claim, ...] = ()

    def run(self, scale: float = 0.125, runs: int = 3,
            seed: int = 0, **kwargs) -> SeriesSet:
        return self.runner(scale=scale, runs=runs, seed=seed, **kwargs)


_REGISTRY: Dict[str, Experiment] = {}


def register(id: str, title: str, paper_claim: str,
             claims: Sequence[Claim] = ()):
    """Decorator: register a runner under an experiment id."""

    def wrap(runner):
        if id in _REGISTRY:
            raise ValueError(f"duplicate experiment id {id!r}")
        _REGISTRY[id] = Experiment(id=id, title=title,
                                   paper_claim=paper_claim, runner=runner,
                                   claims=tuple(claims))
        return runner

    return wrap


def get(id: str) -> Experiment:
    _ensure_loaded()
    try:
        return _REGISTRY[id]
    except KeyError:
        raise KeyError(f"unknown experiment {id!r}; known: "
                       f"{sorted(_REGISTRY)}") from None


def all_experiments() -> List[Experiment]:
    _ensure_loaded()
    return [_REGISTRY[key] for key in sorted(_REGISTRY)]


def _ensure_loaded() -> None:
    """Import every experiment module exactly once."""
    from . import (fig1_zcav, fig2_tagged_queues, fig3_fairness,  # noqa
                   fig4_nfs_udp, fig5_nfs_tcp, fig6_readahead_potential,
                   fig7_slowdown_nfsheur, fig8_stride, table1_stride,
                   xaged_fs, xfaults_degradation, xlossy_network,
                   xmixed_workload, xnamespace, xreplay)
