"""Golden digest battery: the simulator's artifacts, pinned byte for byte.

Every cell renders one artifact as canonical JSON (sorted keys) and
asserts two things: a rerun in the same process gives the same bytes,
and the SHA-256 of those bytes equals the digest pinned in
``tests/golden/digests.json``.  The matrix covers everything the event
kernel drives:

    transport (udp, tcp) × mount (soft, hard)
        × fault schedule (none, fuzzed) × chaos seed

plus metadata and mixed chaos, a captured trace and its replay, three
namespace patterns, a sharded bench campaign, and the ``fig4`` table
the CLI prints.  A rerun that differs is nondeterminism; a stable
render with a new digest is a moved artifact.  Either means a change to
the kernel or the plumbing above it altered ``(when, seq)`` order or the
work done (see DESIGN.md §12).

A change that is meant to move an artifact re-pins the manifest and
says why in CHANGES.md::

    PYTHONPATH=src python -m tests.test_kernel_equivalence \\
        > tests/golden/digests.json
"""

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import sys
import tempfile
from dataclasses import replace

import pytest

from repro.chaos import (ChaosSchedule, MetadataWorkload, MixedWorkload,
                         ScheduleFuzzer, run_chaos)
from repro.host.testbed import TestbedConfig

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")

DIGESTS_PATH = os.path.join(os.path.dirname(__file__), "golden",
                            "digests.json")


def canonical(jsonable) -> bytes:
    """The byte string we pin: canonical JSON, sorted keys."""
    return json.dumps(jsonable, sort_keys=True,
                      separators=(",", ":")).encode()


def digest(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def pinned() -> dict:
    with open(DIGESTS_PATH) as handle:
        return json.load(handle)


def assert_pinned(name: str, render) -> None:
    """Render twice; both renders must agree and match the pinned digest."""
    first = render()
    assert render() == first, f"{name}: a rerun gave different bytes"
    assert digest(first) == pinned()[name], \
        f"{name}: artifact moved from its pinned digest"


# ---------------------------------------------------------------------------
# Cells


# The chaos matrix: 2 transports × 2 mount semantics × 3 schedules
# (clean, and one fuzzed schedule per chaos seed).
SCHEDULES = [
    ("clean", ChaosSchedule()),
    ("fuzz-s0", ScheduleFuzzer(0).schedule(0)),
    ("fuzz-s7", ScheduleFuzzer(7).schedule(1)),
]
MATRIX = [
    (transport, soft, schedule_id, schedule, seed)
    for transport in ("udp", "tcp")
    for soft in (False, True)
    for (schedule_id, schedule), seed in zip(SCHEDULES, (7, 0, 7))
]
MATRIX_IDS = [f"{t}-{'soft' if s else 'hard'}-{sid}-seed{seed}"
              for t, s, sid, _, seed in MATRIX]
NAMESPACE_PATTERNS = ("stat", "list", "edit")
FIG4_ARGV = ["--runs", "1", "--scale", "0.05", "fig4"]


def render_matrix_cell(transport: str, soft: bool,
                       schedule: ChaosSchedule, seed: int) -> bytes:
    config = TestbedConfig(transport=transport, mount_soft=soft,
                           num_clients=2, seed=seed)
    return canonical(run_chaos(config, schedule).to_jsonable())


def render_workload_chaos(workload, schedule: ChaosSchedule) -> bytes:
    config = TestbedConfig(num_clients=2, seed=7)
    return canonical(run_chaos(config, schedule, workload).to_jsonable())


def capture():
    from repro.replay import capture_nfs_run
    return capture_nfs_run(TestbedConfig(num_clients=2), nreaders=2,
                           scale=0.125)


def render_capture(trace) -> bytes:
    return canonical([dataclasses.asdict(record)
                      for record in trace.records])


def render_replay(trace) -> bytes:
    from repro.replay import replay_trace
    target = replace(TestbedConfig(), transport="tcp",
                     server_heuristic="cursor", nfsheur="improved")
    return canonical(replay_trace(trace, target, clients=2).summary())


def render_namespace(pattern: str) -> bytes:
    from repro.workloads import (NamespaceTreeSpec, NamespaceWorkload,
                                 run_namespace_once)
    tree = NamespaceTreeSpec(files=300, depth=1, fanout=4)
    workload = NamespaceWorkload(pattern=pattern, ops=40)
    config = TestbedConfig(num_clients=2, seed=7)
    return canonical(run_namespace_once(config, tree, workload).summary())


def render_campaign(journal: str):
    """A two-worker sharded bench campaign: (fold bytes, record bytes).

    ``journal`` must not exist yet.
    """
    from repro.campaign import (CampaignOptions, fold_bench, fold_json,
                                run_spec_campaign)
    from repro.campaign.drivers import bench_spec
    spec = bench_spec(2, readers=2, scale=0.03, seed=0)
    outcome = run_spec_campaign(
        spec, journal,
        options=CampaignOptions(workers=2, retry_backoff=0.01))
    record, _throughputs = fold_bench(spec, outcome)
    return fold_json(outcome).encode(), canonical(record)


def render_fig4() -> bytes:
    """The CLI's ``fig4`` table with its host-time ``wall=`` line cut."""
    from repro.cli import main
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(FIG4_ARGV)) in (0, None)
    return "".join(line for line in out.getvalue().splitlines(True)
                   if "wall=" not in line).encode()


def render_all() -> dict:
    """Every pinned artifact by name (the manifest's contents)."""
    blobs = {}
    for cell, (transport, soft, _sid, schedule, seed) in zip(MATRIX_IDS,
                                                             MATRIX):
        blobs[f"chaos/{cell}"] = render_matrix_cell(transport, soft,
                                                    schedule, seed)
    for schedule_id, schedule in SCHEDULES:
        blobs[f"chaos-metadata/{schedule_id}"] = render_workload_chaos(
            MetadataWorkload(), schedule)
    blobs["chaos-mixed/fuzz-s7"] = render_workload_chaos(
        MixedWorkload(), SCHEDULES[2][1])
    trace = capture()
    blobs["replay/capture"] = render_capture(trace)
    blobs["replay/summary"] = render_replay(trace)
    for pattern in NAMESPACE_PATTERNS:
        blobs[f"namespace/{pattern}"] = render_namespace(pattern)
    with tempfile.TemporaryDirectory() as journal_dir:
        (blobs["campaign/bench-fold"],
         blobs["campaign/bench-record"]) = render_campaign(
            os.path.join(journal_dir, "journal.jsonl"))
    blobs["cli/fig4"] = render_fig4()
    return blobs


# ---------------------------------------------------------------------------
# The battery


class TestManifest:
    def test_manifest_names_every_cell_once(self):
        expected = ({f"chaos/{cell}" for cell in MATRIX_IDS}
                    | {f"chaos-metadata/{sid}" for sid, _ in SCHEDULES}
                    | {"chaos-mixed/fuzz-s7", "replay/capture",
                       "replay/summary", "campaign/bench-fold",
                       "campaign/bench-record", "cli/fig4"}
                    | {f"namespace/{p}" for p in NAMESPACE_PATTERNS})
        assert set(pinned()) == expected


class TestTestbedMatrix:
    @pytest.mark.parametrize("cell,params", list(zip(MATRIX_IDS, MATRIX)),
                             ids=MATRIX_IDS)
    def test_chaos_artifacts_byte_identical(self, cell, params):
        transport, soft, _schedule_id, schedule, seed = params
        assert_pinned(f"chaos/{cell}", lambda: render_matrix_cell(
            transport, soft, schedule, seed))

    def test_matrix_cells_are_not_trivially_equal(self):
        # Sanity on the battery itself: another seed gives another
        # artifact, so a digest match above is meaningful.
        other_seed = render_matrix_cell("udp", False, SCHEDULES[0][1], 0)
        assert digest(other_seed) != pinned()["chaos/udp-hard-clean-seed7"]


class TestMetadataChaosIdentity:
    """Intent-log commits, crash recovery with fsck, and the metadata
    oracles all ride the event kernel, so their full artifact — counters,
    oracle verdicts, fingerprint payload — is pinned like the rest."""

    @pytest.mark.parametrize("schedule_id,schedule", SCHEDULES,
                             ids=[sid for sid, _ in SCHEDULES])
    def test_metadata_artifacts_byte_identical(self, schedule_id,
                                               schedule):
        assert_pinned(f"chaos-metadata/{schedule_id}",
                      lambda: render_workload_chaos(MetadataWorkload(),
                                                    schedule))

    def test_mixed_artifacts_byte_identical(self):
        assert_pinned("chaos-mixed/fuzz-s7",
                      lambda: render_workload_chaos(MixedWorkload(),
                                                    SCHEDULES[2][1]))


class TestReplayIdentity:
    @pytest.fixture(scope="class")
    def traces(self):
        """Two independent captures of the same run."""
        return capture(), capture()

    def test_capture_byte_identical(self, traces):
        first, second = (render_capture(trace) for trace in traces)
        assert second == first, "replay/capture: a rerun gave different bytes"
        assert digest(first) == pinned()["replay/capture"]

    def test_replay_summary_byte_identical(self, traces):
        assert_pinned("replay/summary", lambda: render_replay(traces[0]))


class TestNamespaceWorkloadIdentity:
    @pytest.mark.parametrize("pattern", NAMESPACE_PATTERNS)
    def test_namespace_summary_byte_identical(self, pattern):
        """The full run summary (op counts, every mount and server
        counter) of each metadata pattern is pinned."""
        assert_pinned(f"namespace/{pattern}",
                      lambda: render_namespace(pattern))


class TestCampaignFoldIdentity:
    def test_bench_campaign_fold_byte_identical(self, tmp_path):
        # Workers fork, so the fold also proves worker processes
        # schedule exactly as the parent would.
        fold, record = render_campaign(str(tmp_path / "first.jsonl"))
        assert render_campaign(str(tmp_path / "second.jsonl")) == \
            (fold, record), "campaign: a rerun gave different bytes"
        assert digest(fold) == pinned()["campaign/bench-fold"]
        assert digest(record) == pinned()["campaign/bench-record"]


class TestCliFigure:
    def test_fig4_table_byte_identical(self):
        assert_pinned("cli/fig4", render_fig4)


if __name__ == "__main__":
    manifest = {name: digest(blob) for name, blob in render_all().items()}
    json.dump(manifest, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
