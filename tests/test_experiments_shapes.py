"""Shape tests: every registered paper claim, at reduced scale.

The module fixture runs each experiment once at a small scale, and
``test_claim_holds`` checks every registered claim: the *relations*
the paper reports (who wins, roughly by how much), not the absolute
MB/s, which belong to the authors' hardware.  They are the regression
net for the whole model: if a change to any subsystem breaks a paper
claim, its case fails and prints the figures the claim read.

The same figures are also pinned byte for byte: each experiment's
:class:`~repro.stats.SeriesSet`, as canonical JSON, must hash to the
digest in ``tests/golden/experiments.json``.  A change that is meant
to move a figure re-pins the manifest and says why in CHANGES.md::

    PYTHONPATH=src python -m tests.test_experiments_shapes \\
        > tests/golden/experiments.json
"""

import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import pytest

import repro.experiments as experiments_pkg
from repro.experiments import Claim, all_experiments, get
from repro.stats import SeriesSet, summarize

SCALE = 1 / 16
RUNS = 1

GOLDEN_PATH = Path(__file__).parent / "golden" / "experiments.json"


#: Experiments whose effects need longer files to mature (the nfsheur
#: thrash of figs 6-7 builds up over a run) get a larger scale.
SCALE_OVERRIDES = {"fig6": 1 / 8, "fig7": 1 / 8}

CLAIMS = [claim for experiment in all_experiments()
          for claim in experiment.claims]


def run_all() -> dict:
    """Every experiment's figure at small scale, by experiment id."""
    return {experiment.id: experiment.run(
                scale=SCALE_OVERRIDES.get(experiment.id, SCALE),
                runs=RUNS, seed=7)
            for experiment in all_experiments()}


def figure_digest(figure) -> str:
    """SHA-256 of a figure's canonical JSON (sorted keys)."""
    blob = json.dumps(dataclasses.asdict(figure), sort_keys=True,
                      separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


@pytest.fixture(scope="module")
def figures():
    """Run every experiment once at small scale (module-cached)."""
    return run_all()


class TestPinnedFigures:
    def test_manifest_names_every_experiment(self):
        pinned = json.loads(GOLDEN_PATH.read_text())
        assert sorted(pinned) == [e.id for e in all_experiments()]

    @pytest.mark.parametrize("experiment_id",
                             [e.id for e in all_experiments()])
    def test_figure_byte_identical(self, figures, experiment_id):
        pinned = json.loads(GOLDEN_PATH.read_text())
        assert figure_digest(figures[experiment_id]) == \
            pinned[experiment_id], \
            f"{experiment_id}: figure moved from its pinned digest\n" \
            f"{figures[experiment_id].render()}"


class TestRegistry:
    def test_every_experiment_module_is_registered(self):
        """The registry is discovered, not hand-listed.

        Every experiment module (``<id>_<slug>.py`` next to the
        registry) must register exactly the id its filename declares —
        so adding an experiment module without registering it, or
        registering an id with no module, fails here without anyone
        editing a hardcoded list.
        """
        module_dir = Path(experiments_pkg.__file__).parent
        support = {"__init__", "registry", "common"}
        expected = {path.stem.split("_")[0]
                    for path in module_dir.glob("*.py")
                    if path.stem not in support}
        ids = [experiment.id for experiment in all_experiments()]
        assert set(ids) == expected
        assert len(ids) == len(set(ids)), "duplicate experiment ids"

    def test_listing_is_sorted_and_get_round_trips(self):
        ids = [experiment.id for experiment in all_experiments()]
        assert ids == sorted(ids)
        for experiment in all_experiments():
            assert get(experiment.id) is experiment

    def test_get_unknown_raises(self):
        with pytest.raises(KeyError):
            get("fig99")

    def test_every_experiment_has_claim(self):
        for experiment in all_experiments():
            assert experiment.paper_claim
            assert experiment.title
            assert callable(experiment.runner)

    def test_claims_are_named_once_and_told_in_one_line(self):
        assert len({claim.id for claim in CLAIMS}) == len(CLAIMS)
        for experiment in all_experiments():
            for claim in experiment.claims:
                assert claim.id.startswith(f"{experiment.id}/"), claim.id
                assert claim.text and "\n" not in claim.text, claim.id

    def test_report_renders_the_figures_a_claim_read(self):
        figures = {}
        for name in ("a", "b"):
            figure = figures[name] = SeriesSet(f"figure {name}")
            figure.new_series("s").add(1, summarize([1.0]))
        claim = Claim("a/reads-b", "b is above 2",
                      lambda f: f["b"].mean("s", 1) > 2)
        assert claim.holds(figures) is False
        report = claim.report(figures)
        assert report.startswith("a/reads-b: b is above 2\n\nfigure b")
        assert "figure a" not in report


@pytest.mark.parametrize("claim", CLAIMS, ids=[c.id for c in CLAIMS])
def test_claim_holds(figures, claim):
    assert claim.holds(figures) is True, claim.report(figures)


class TestFig8AndTable1(object):
    def test_table1_reports_std(self, figures):
        figure = figures["table1"]
        for series in figure.series:
            for _x, summary in series.points:
                assert summary.std >= 0.0
                assert summary.count == RUNS


class TestExtensionExperiments(object):
    def test_xfaults_publishes_per_run_detail(self, figures):
        """Satellite of the chaos PR: the per-run recovery counters
        behind the summarised goodput points survive into
        ``figure.detail`` instead of being averaged away."""
        records = figures["xfaults"].detail
        # 4 combos x 4 loss rates x RUNS runs.
        assert len(records) == 4 * 4 * RUNS
        required = {"label", "transport", "soft", "mean_loss",
                    "run_index", "seed", "goodput_mb_s", "error_rate",
                    "rpc_timeouts", "retransmits",
                    "tcp_segment_retransmits", "dupreq_hits",
                    "dupreq_evictions", "duplicate_executions",
                    "verifier_resends", "commit_retries",
                    "server_crashes"}
        for record in records:
            assert required <= set(record)
            assert record["duplicate_executions"] == 0
        lossy_udp = [r for r in records
                     if r["transport"] == "udp" and r["mean_loss"] > 0]
        assert any(r["retransmits"] > 0 for r in lossy_udp)
        clean = [r for r in records if r["mean_loss"] == 0.0]
        assert all(r["retransmits"] == 0 for r in clean)


if __name__ == "__main__":
    manifest = {experiment_id: figure_digest(figure)
                for experiment_id, figure in run_all().items()}
    json.dump(manifest, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
