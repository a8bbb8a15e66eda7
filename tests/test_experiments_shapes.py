"""Shape tests: the paper's qualitative claims, at reduced scale.

These run each experiment at a small scale and assert the *relations*
the paper reports (who wins, roughly by how much) — not the absolute
MB/s, which belong to the authors' hardware.  They are the regression
net for the whole model: if a change to any subsystem breaks a paper
claim, one of these fails.

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
from repro.experiments import all_experiments, get

SCALE = 1 / 16
RUNS = 1

GOLDEN_PATH = Path(__file__).parent / "golden" / "experiments.json"


#: Experiments whose effects need longer files to mature (the nfsheur
#: thrash of figs 6-7 builds up over a run) get a larger scale.
SCALE_OVERRIDES = {"fig6": 1 / 8, "fig7": 1 / 8}


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


class TestFig1Zcav(object):
    def test_outer_beats_inner(self, figures):
        figure = figures["fig1"]
        # IDE (no tagged queues): the clean ZCAV contrast, point by
        # point.  SCSI: tagged queueing adds noise that can invert
        # single points (the paper's own observation), so compare the
        # curve averages.
        for x in (1, 2, 4, 8, 16, 32):
            assert figure.get("ide1").at(x).mean > \
                figure.get("ide4").at(x).mean
        scsi_outer = figure.get("scsi1").means
        scsi_inner = figure.get("scsi4").means
        assert sum(scsi_outer) > sum(scsi_inner)

    def test_ide_gradient_near_media_ratio(self, figures):
        figure = figures["fig1"]
        ratio = figure.get("ide1").at(1).mean / \
            figure.get("ide4").at(1).mean
        assert 1.2 <= ratio <= 1.7


class TestFig2TaggedQueues(object):
    def test_no_tags_wins_for_concurrent_readers(self, figures):
        figure = figures["fig2"]
        for x in (4, 8, 16, 32):
            assert figure.get("scsi1/no-tags").at(x).mean > \
                1.3 * figure.get("scsi1/tags").at(x).mean

    def test_tags_single_reader_spike(self, figures):
        """With tags: single-reader spike, then a fall-off."""
        series = figures["fig2"].get("scsi1/tags")
        assert series.at(1).mean > 1.5 * series.at(8).mean

    def test_no_tags_barely_dips(self, figures):
        series = figures["fig2"].get("scsi1/no-tags")
        assert series.at(32).mean > 0.85 * series.at(1).mean


class TestFig3Fairness(object):
    def test_elevator_staircase(self, figures):
        series = figures["fig3"].get("ide1/elevator")
        first = series.at(1).mean
        last = series.at(8).mean
        assert last / first > 4.0   # paper: 6-7x

    def test_ncscan_is_fair(self, figures):
        series = figures["fig3"].get("ide1/n-cscan")
        spread = series.at(8).mean / series.at(1).mean
        assert spread < 1.25        # paper: < 20% spread

    def test_fairness_costs_throughput(self, figures):
        figure = figures["fig3"]
        elevator_last = figure.get("ide1/elevator").at(8).mean
        ncscan_last = figure.get("ide1/n-cscan").at(8).mean
        assert ncscan_last > 1.5 * elevator_last

    def test_firmware_fair_but_slowest(self, figures):
        figure = figures["fig3"]
        tags = figure.get("scsi1/elevator/tags")
        spread = tags.at(8).mean / tags.at(1).mean
        assert spread < 2.0
        assert tags.at(8).mean > \
            figure.get("scsi1/elevator/no-tags").at(8).mean


class TestFig4Udp(object):
    def test_throughput_falls_with_concurrency(self, figures):
        series = figures["fig4"].get("ide1")
        assert series.at(32).mean < 0.6 * series.at(1).mean

    def test_zcav_still_visible(self, figures):
        # At one reader NFS is protocol-bound, so the ZCAV gap shows up
        # once the disk becomes the bottleneck (many readers).
        figure = figures["fig4"]
        outer = figure.get("ide1")
        inner = figure.get("ide4")
        assert outer.at(16).mean + outer.at(32).mean > \
            inner.at(16).mean + inner.at(32).mean

    def test_nfs_about_half_of_local(self, figures):
        local = figures["fig1"].get("ide1").at(1).mean
        nfs = figures["fig4"].get("ide1").at(1).mean
        assert 0.3 * local < nfs < 0.85 * local


class TestFig5Tcp(object):
    def test_udp_beats_tcp_at_low_concurrency(self, figures):
        udp = figures["fig4"].get("ide1").at(1).mean
        tcp = figures["fig5"].get("ide1").at(1).mean
        assert udp > 1.2 * tcp

    def test_tcp_flatter_than_udp(self, figures):
        udp = figures["fig4"].get("scsi1")
        tcp = figures["fig5"].get("scsi1")
        udp_drop = udp.at(1).mean / udp.at(32).mean
        tcp_drop = tcp.at(1).mean / tcp.at(32).mean
        assert tcp_drop < udp_drop


class TestFig6ReadaheadPotential(object):
    def test_always_beats_default_at_high_concurrency(self, figures):
        figure = figures["fig6"]
        assert figure.get("always/idle").at(32).mean > \
            1.25 * figure.get("default/idle").at(32).mean

    def test_busy_client_slower_overall(self, figures):
        figure = figures["fig6"]
        for x in (1, 2, 4):
            assert figure.get("default/busy").at(x).mean < \
                figure.get("default/idle").at(x).mean

    def test_busy_gap_comparable_to_idle_gap(self, figures):
        """The paper reports the Always-vs-Default gap *shrinks* under
        client CPU load; in our model the high-concurrency gap is
        nfsheur-driven and load-independent, so we assert the weaker,
        honest form: the busy gap does not blow up relative to idle
        (recorded as a deviation in EXPERIMENTS.md)."""
        figure = figures["fig6"]
        idle_gap = (figure.get("always/idle").at(32).mean
                    - figure.get("default/idle").at(32).mean)
        busy_gap = (figure.get("always/busy").at(32).mean
                    - figure.get("default/busy").at(32).mean)
        assert busy_gap < idle_gap * 1.4


class TestFig7Nfsheur(object):
    def test_new_table_recovers_always_level(self, figures):
        figure = figures["fig7"]
        always = figure.get("always").at(32).mean
        new_table = figure.get("default/new-nfsheur").at(32).mean
        assert new_table > 0.7 * always

    def test_default_table_is_the_bottleneck(self, figures):
        figure = figures["fig7"]
        assert figure.get("default/new-nfsheur").at(32).mean > \
            1.2 * figure.get("default/default-nfsheur").at(32).mean

    def test_slowdown_adds_nothing_over_default_with_new_table(
            self, figures):
        figure = figures["fig7"]
        slowdown = figure.get("slowdown/new-nfsheur").at(32).mean
        default = figure.get("default/new-nfsheur").at(32).mean
        assert abs(slowdown - default) / default < 0.35


class TestFig8AndTable1(object):
    def test_cursor_beats_default_in_every_cell(self, figures):
        figure = figures["fig8"]
        for fs in ("ide1", "scsi1"):
            for strides in (2, 4, 8):
                cursor = figure.get(f"{fs}/cursor").at(strides).mean
                default = figure.get(f"{fs}/default").at(strides).mean
                assert cursor > 1.15 * default

    def test_ide_default_dips_at_eight_strides(self, figures):
        series = figures["fig8"].get("ide1/default")
        assert series.at(8).mean < 0.8 * series.at(2).mean

    def test_scsi_default_stays_flat(self, figures):
        series = figures["fig8"].get("scsi1/default")
        assert series.at(8).mean > 0.75 * series.at(2).mean

    def test_ide_gain_largest_at_eight_strides(self, figures):
        figure = figures["fig8"]
        gain = {strides: figure.get("ide1/cursor").at(strides).mean /
                figure.get("ide1/default").at(strides).mean
                for strides in (2, 4, 8)}
        assert gain[8] == max(gain.values())

    def test_table1_reports_std(self, figures):
        figure = figures["table1"]
        for series in figure.series:
            for _x, summary in series.points:
                assert summary.std >= 0.0
                assert summary.count == RUNS


class TestExtensionExperiments(object):
    """Shape checks for the Section 8 / related-work extensions."""

    def test_lossy_udp_collapses_tcp_degrades(self, figures):
        figure = figures["xlossy"]
        udp = figure.get("udp")
        tcp = figure.get("tcp")
        # At 2% frame loss UDP has lost >90% of its lossless
        # throughput; TCP less than 70%.
        assert udp.at(0.02).mean < 0.1 * udp.at(0.0).mean
        assert tcp.at(0.02).mean > 0.3 * tcp.at(0.0).mean
        assert tcp.at(0.005).mean > 3 * udp.at(0.005).mean

    def test_mixed_writers_erode_reads_but_ordering_survives(
            self, figures):
        figure = figures["xmixed"]
        for label in figure.labels:
            series = figure.get(label)
            assert series.at(4).mean < series.at(0).mean
        assert figure.get("always").at(4).mean >= \
            0.9 * figure.get("default/default-nfsheur").at(4).mean

    def test_namespace_attrcache_window_dominates(self, figures):
        """xnamespace: disabling the attribute cache (acregmax=0)
        collapses stat() throughput on both transports — the mount
        option dwarfs everything else in the metadata workload."""
        figure = figures["xnamespace"]
        udp = figure.get("udp")
        tcp = figure.get("tcp")
        for series in (udp, tcp):
            assert series.at(0.0).mean < 0.5 * series.at(60.0).mean
        # Cache off, every probe is a synchronous RPC: the per-call
        # transport cost separates udp from tcp clearly.
        assert udp.at(0.0).mean > 1.5 * tcp.at(0.0).mean

    def test_aged_fs_readahead_value_stays_large(self, figures):
        figure = figures["xaged"]
        for fragmentation in (0.0, 0.5):
            assert figure.get("always").at(fragmentation).mean > \
                3 * figure.get("no-readahead").at(fragmentation).mean

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
