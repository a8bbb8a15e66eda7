"""End-to-end acceptance for ``repro diagnose``.

The issue's criterion, verbatim: diagnose on a fig1 (ZCAV) and fig2
(TCQ) experiment trace flags the corresponding trap with cited
evidence, and flags *nothing* on a trap-free fig6 run.  These tests
run the real experiments through the real CLI — ``--trace`` plus
``--metrics-out`` artifacts on disk, then the ``diagnose`` verb over
those files — at reduced scale, and also pin that the verb's JSON
output is byte-identical across invocations.
"""

import io
import json
from contextlib import redirect_stdout

import pytest

from repro.cli import main

#: (experiment, scale): small enough to keep the suite fast, large
#: enough that every detector's minimum-evidence guard is satisfied.
RUNS = [("fig1", "0.03125"), ("fig2", "0.03125"), ("fig6", "0.015625"),
        ("xnamespace", "0.0078125")]


def run_cli(argv):
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = main(argv)
    return code, buffer.getvalue()


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """Trace + metrics files for each experiment, via the CLI flags."""
    root = tmp_path_factory.mktemp("diagnose_e2e")
    paths = {}
    for experiment, scale in RUNS:
        trace = root / f"{experiment}.trace.json"
        metrics = root / f"{experiment}.metrics.json"
        code, out = run_cli([experiment, "--runs", "1", "--scale",
                             scale, "--trace", str(trace),
                             "--metrics-out", str(metrics)])
        assert code == 0
        assert "snapshots ->" in out and "spans ->" in out
        paths[experiment] = (str(trace), str(metrics))
    return paths


@pytest.fixture(scope="module")
def reports(artifacts):
    """Parsed ``diagnose --json`` report per experiment."""
    reports = {}
    for experiment, (trace, metrics) in artifacts.items():
        code, out = run_cli(["diagnose", "--trace", trace,
                             "--metrics", metrics, "--json"])
        assert code == 0
        reports[experiment] = json.loads(out)
    return reports


def findings_by_detector(report):
    return {finding["detector"]: finding
            for finding in report["findings"]}


class TestTrapVerdicts:
    def test_fig1_flags_zcav_with_cited_evidence(self, reports):
        zcav = findings_by_detector(reports["fig1"])["zcav"]
        assert zcav["paper_section"] == "§5.1"
        assert zcav["evidence"]["rate_ratio"] > 1.15
        assert zcav["evidence"]["outer_band_mb_s"] > \
            zcav["evidence"]["inner_band_mb_s"]

    def test_fig2_flags_tcq_with_cited_evidence(self, reports):
        tcq = findings_by_detector(reports["fig2"])["tcq"]
        assert tcq["severity"] == "critical"
        assert tcq["paper_section"] == "§5.2"
        assert tcq["evidence"]["reorder_fraction"] >= 0.05
        assert tcq["evidence"]["tcq_commands"] >= 50

    def test_fig6_flags_nothing(self, reports):
        assert reports["fig6"]["findings"] == []

    def test_no_spurious_detectors_fire(self, reports):
        # fig1/fig2 sweep both partitions of a TCQ-capable drive, so
        # zcav and tcq are *both* genuine there — but nothing else is.
        for experiment in ("fig1", "fig2"):
            assert set(findings_by_detector(reports[experiment])) <= \
                {"zcav", "tcq"}


class TestAttribution:
    def test_table_covers_the_request_path(self, reports):
        report = reports["fig6"]
        layers = {row["layer"] for row in report["attribution"]}
        assert {"bench", "kernel.bufq", "disk.mechanics"} <= layers
        assert report["runs"] == 24
        assert report["end_to_end_s"] > 0

    def test_shares_partition_the_wall_time(self, reports):
        for report in reports.values():
            shares = [row["share"] for row in report["attribution"]]
            assert sum(shares) == pytest.approx(1.0)
            assert all(share >= 0 for share in shares)

    def test_fig6_bottleneck_is_the_disk_queue(self, reports):
        assert reports["fig6"]["dominant"] == "kernel.bufq"

    def test_fig1_bottleneck_splits_by_drive(self, reports):
        by_config = reports["fig1"]["dominant_by_config"]
        assert set(by_config) == {"ide1", "ide4", "scsi1", "scsi4"}
        assert by_config["scsi1"] == "disk.tcq"
        assert by_config["ide1"] == "kernel.bufq"

    def test_xnamespace_bottleneck_splits_by_transport(self, reports):
        # Every sweep stamps its snapshots with the series, so the
        # per-configuration election covers the extensions too.
        by_config = reports["xnamespace"]["dominant_by_config"]
        assert set(by_config) == {"udp", "tcp"}


class TestCliContract:
    def test_json_report_is_byte_identical_across_invocations(
            self, artifacts):
        trace, metrics = artifacts["fig2"]
        argv = ["diagnose", "--trace", trace, "--metrics", metrics,
                "--json"]
        first = run_cli(argv)
        second = run_cli(argv)
        assert first == second

    def test_human_rendering_has_the_attribution_table(self, artifacts):
        trace, metrics = artifacts["fig6"]
        code, out = run_cli(["diagnose", "--trace", trace,
                             "--metrics", metrics])
        assert code == 0
        assert "critical path" in out
        assert "dominant bottleneck: kernel.bufq" in out
        assert "traps detected: none" in out

    def test_metrics_only_diagnosis_works(self, artifacts):
        _trace, metrics = artifacts["fig2"]
        code, out = run_cli(["diagnose", "--metrics", metrics,
                             "--json"])
        assert code == 0
        report = json.loads(out)
        assert report["runs"] == 0
        assert "tcq" in findings_by_detector(report)
