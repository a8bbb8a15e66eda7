"""Regenerate the paper's figures and tables and check their claims.

Each case runs one experiment under pytest-benchmark, prints and
archives its figure under ``benchmarks/results/``, and asserts every
claim the experiment registers, at the benchmark's settings.
"""

import pytest

from conftest import RESULTS_DIR, bench_runs, bench_scale, bench_seed

from repro.experiments import get

EXPERIMENTS = ("fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7",
               "fig8", "table1", "xaged", "xfaults", "xlossy", "xmixed")


def settings(experiment_id: str) -> dict:
    # Table 1 reports mean (std) over repeated runs, so it gets more.
    runs = bench_runs(default=5 if experiment_id == "table1" else 2)
    return dict(scale=bench_scale(), runs=runs, seed=bench_seed())


class Figures(dict):
    """The figures regenerated this session, by experiment id.  A claim
    that reads a figure this session has not regenerated (a ``-k``
    selection) gets it run here, at the same settings, unarchived."""

    def __missing__(self, experiment_id):
        figure = self[experiment_id] = get(experiment_id).run(
            **settings(experiment_id))
        return figure


@pytest.fixture(scope="session")
def figures():
    return Figures()


@pytest.mark.parametrize("experiment_id", EXPERIMENTS)
def test_figure(experiment_id, figures, benchmark):
    experiment = get(experiment_id)
    run_settings = settings(experiment_id)
    figure = figures[experiment_id] = benchmark.pedantic(
        lambda: experiment.run(**run_settings), rounds=1, iterations=1)
    rendered = figure.render()
    print()
    print(rendered)
    print(f"(paper claim: {experiment.paper_claim})")
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{experiment_id}.txt").write_text(
        rendered + "\n\nsettings: " + repr(run_settings)
        + "\npaper claim: " + experiment.paper_claim + "\n")
    for claim in experiment.claims:
        assert claim.holds(figures) is True, claim.report(figures)
