"""The NFSv3 namespace subsystem: RFC 1813 edges, workloads, detectors.

Four batteries:

* RFC 1813 edge semantics — RENAME atomically replacing a target,
  REMOVE of a file another handle still holds (reads go stale, not
  time-travel), READDIR cookie verifiers after mid-listing mutation,
  and dupreq idempotency of retried mutations over a lossy transport.
* The ``repro.workloads.namespace`` family — every pattern end to end,
  deterministic summaries, and the bench/campaign plumbing.
* Capture → replay of metadata-heavy workloads, including the format
  v1/v2 negotiation (old captures keep their byte-identical v1 form).
* The three metadata trap detectors firing on real misconfigured runs
  and staying silent on clean ones.
"""

import dataclasses
import json

import pytest

from repro.host import TestbedConfig, build_nfs_testbed
from repro.nfs import (FileHandle, NfsNoEntryError, NfsNotEmptyError,
                       NfsStaleError, SetattrRequest)
from repro.obs import observe
from repro.workloads import (NamespaceTreeSpec, NamespaceWorkload,
                             PATTERNS, run_namespace_once)
from repro.workloads.namespace import FILE_SIZE

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")


def run_ops(testbed, gen):
    """Drive one generator to completion on the testbed's simulator."""
    process = testbed.sim.spawn(gen)
    return testbed.sim.run_until_complete(process)


def canonical(jsonable) -> bytes:
    return json.dumps(jsonable, sort_keys=True,
                      separators=(",", ":")).encode()


# ---------------------------------------------------------------------------
# Tree specs
# ---------------------------------------------------------------------------

class TestTreeSpec:
    def test_flat_tree_is_one_directory(self):
        tree = NamespaceTreeSpec(files=100, depth=0)
        assert tree.leaf_dirs == 1
        assert tree.dir_paths() == ["ns"]
        paths = list(tree.paths())
        assert len(paths) == 100
        assert paths[0] == ("ns/f000000", FILE_SIZE)

    def test_nested_tree_spreads_round_robin(self):
        tree = NamespaceTreeSpec(files=64, depth=2, fanout=4)
        assert tree.leaf_dirs == 16
        dirs = tree.dir_paths()
        assert len(dirs) == 16
        assert dirs[0] == "ns/d00/d00"
        assert dirs[-1] == "ns/d03/d03"
        by_dir = {}
        for path, _size in tree.paths():
            by_dir.setdefault(path.rsplit("/", 1)[0], 0)
            by_dir[path.rsplit("/", 1)[0]] += 1
        assert set(by_dir.values()) == {4}

    def test_validation(self):
        with pytest.raises(ValueError):
            NamespaceTreeSpec(files=0)
        with pytest.raises(ValueError):
            NamespaceTreeSpec(depth=1, fanout=1)
        with pytest.raises(ValueError):
            NamespaceWorkload(pattern="scan")
        with pytest.raises(ValueError):
            NamespaceWorkload(ops=0)

    def test_more_leaf_directories_than_files_rejected(self):
        assert NamespaceTreeSpec(files=32, depth=1, fanout=32).leaf_dirs \
            == 32
        with pytest.raises(ValueError, match="32\\*\\*1 leaf"):
            NamespaceTreeSpec(files=31, depth=1, fanout=32)
        # Checked without evaluating fanout**depth.
        with pytest.raises(ValueError):
            NamespaceTreeSpec(files=10_000, depth=10 ** 9, fanout=32)


# ---------------------------------------------------------------------------
# RFC 1813 edges
# ---------------------------------------------------------------------------

class TestRenameSemantics:
    def test_rename_replaces_existing_target(self):
        testbed = build_nfs_testbed(TestbedConfig())
        mount = testbed.mount

        def scenario():
            yield from mount.mkdir("d")
            yield from mount.create("d/src", size=2048)
            yield from mount.create("d/dst", size=8192)
            yield from mount.rename("d/src", "d/dst")
            return (yield from mount.stat("d/dst"))

        attrs = run_ops(testbed, scenario())
        # The target was atomically replaced by the source.
        assert attrs.size == 2048
        assert testbed.server.stats.renames == 1
        with pytest.raises(NfsNoEntryError):
            run_ops(testbed, mount.stat("d/src"))

    def test_rename_over_nonempty_directory_refuses(self):
        testbed = build_nfs_testbed(TestbedConfig())
        mount = testbed.mount

        def setup():
            yield from mount.mkdir("a")
            yield from mount.mkdir("b")
            yield from mount.create("b/occupant", size=1024)

        run_ops(testbed, setup())
        with pytest.raises(NfsNotEmptyError):
            run_ops(testbed, mount.rename("a", "b"))
        # Nothing moved.
        assert run_ops(testbed, mount.readdir("b")) == ["occupant"]
        assert testbed.server.stats.renames == 0

    def test_replaced_target_handle_goes_stale(self):
        testbed = build_nfs_testbed(TestbedConfig())
        mount = testbed.mount

        def setup():
            yield from mount.create("src", size=1024)
            dst = yield from mount.create("dst", size=1024)
            yield from mount.rename("src", "dst")
            return dst

        dst = run_ops(testbed, setup())
        # Drop cached blocks: the read must reach the server, and the
        # *replaced* node's handle is dead there — the answer is stale,
        # not the new content.
        testbed.flush_caches()
        with pytest.raises(NfsStaleError):
            run_ops(testbed, mount.read(dst, 0, 512))
        assert testbed.server.stats.stale_handles >= 1


class TestRemoveSemantics:
    def test_remove_of_open_file_stales_reads(self):
        testbed = build_nfs_testbed(TestbedConfig())
        mount = testbed.mount

        def scenario():
            yield from mount.create("victim", size=4096)
            nfile = yield from mount.open("victim")
            yield from mount.remove("victim")
            yield from mount.read(nfile, 0, 1024)

        with pytest.raises(NfsStaleError):
            run_ops(testbed, scenario())
        assert testbed.server.stats.removes == 1
        assert testbed.server.stats.stale_handles >= 1

    def test_remove_absent_raises_noent(self):
        testbed = build_nfs_testbed(TestbedConfig())
        with pytest.raises(NfsNoEntryError):
            run_ops(testbed, testbed.mount.remove("never-existed"))

    def test_getattr_of_file_removed_by_another_client_is_stale(self):
        testbed = build_nfs_testbed(TestbedConfig(num_clients=2))
        testbed.server.export_file("data", 4096)
        mine, theirs = testbed.mounts
        nfile = run_ops(testbed, mine.open("data"))
        run_ops(testbed, theirs.remove("data"))
        with pytest.raises(NfsStaleError):
            run_ops(testbed, mine.getattr(nfile))


class TestSetattrValidation:
    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            SetattrRequest(fh=FileHandle(1), size=-5)
        testbed = build_nfs_testbed(TestbedConfig())
        mount = testbed.mount
        run_ops(testbed, mount.create("data", size=4096))
        with pytest.raises(ValueError):
            run_ops(testbed, mount.touch("data", size=-5))
        assert run_ops(testbed, mount.stat("data")).size == 4096


class TestReaddirCookies:
    def test_mutation_mid_listing_restarts_with_bad_cookie(self):
        # A small per-RPC byte budget forces many chunks per listing,
        # leaving a window to mutate the directory mid-listing.
        testbed = build_nfs_testbed(
            TestbedConfig(readdir_count=512, acdirmax=0.0, acdirmin=0.0))
        mount = testbed.mount

        def setup():
            yield from mount.mkdir("big")
            for index in range(120):
                yield from mount.create(f"big/f{index:03d}", size=1024)

        run_ops(testbed, setup())
        baseline_rpcs = mount.stats.readdir_rpcs

        def lister(sim):
            return (yield from mount.readdir("big"))

        def mutator(sim):
            # Wait until the listing is demonstrably mid-flight, then
            # mutate the directory (bumping its cookie verifier).
            while mount.stats.readdir_rpcs < baseline_rpcs + 2:
                yield sim.timeout(1e-4)
            yield from mount.create("big/intruder", size=1024)

        lister_proc = testbed.sim.spawn(lister(testbed.sim))
        testbed.sim.spawn(mutator(testbed.sim))
        names = testbed.sim.run_until_complete(lister_proc)
        testbed.sim.run()
        assert testbed.server.stats.bad_cookies >= 1
        assert mount.stats.readdir_restarts >= 1
        # The restarted listing is complete and includes the intruder.
        assert len(names) == 121
        assert "intruder" in names

    def test_unmutated_listing_never_restarts(self):
        testbed = build_nfs_testbed(TestbedConfig(readdir_count=512))
        mount = testbed.mount

        def scenario():
            yield from mount.mkdir("big")
            for index in range(60):
                yield from mount.create(f"big/f{index:03d}", size=1024)
            return (yield from mount.readdir("big"))

        names = run_ops(testbed, scenario())
        assert len(names) == 60
        assert mount.stats.readdir_restarts == 0
        assert testbed.server.stats.bad_cookies == 0
        # Chunking happened (the budget is far below 60 entries).
        assert mount.stats.readdir_rpcs > 1


class TestDupreqIdempotency:
    def test_retried_mutations_execute_once_over_lossy_udp(self):
        # 25% datagram loss makes RPC retransmission certain across 40
        # mutations; the dupreq cache must answer every retry from the
        # cached reply, so each CREATE/RENAME/REMOVE executes exactly
        # once and the client sees no spurious NOENT/EXIST.
        testbed = build_nfs_testbed(
            TestbedConfig(transport="udp", loss_rate=0.25, seed=11))
        mount = testbed.mount

        def scenario():
            yield from mount.mkdir("work")
            for index in range(40):
                yield from mount.create(f"work/t{index:02d}", size=1024)
                yield from mount.rename(f"work/t{index:02d}",
                                        f"work/f{index:02d}")
            for index in range(40):
                yield from mount.remove(f"work/f{index:02d}")
            return (yield from mount.readdir("work"))

        names = run_ops(testbed, scenario())
        assert names == []
        # The run actually exercised retries, and retries were served
        # from the dupreq cache rather than re-executed.
        assert sum(c.retransmitted for c in testbed.rpc_clients) > 0
        assert sum(s.dupreq_hits + s.dupreq_in_progress_drops
                   for s in testbed.rpc_servers) > 0
        stats = testbed.server.stats
        assert stats.creates == 40
        assert stats.renames == 40
        assert stats.removes == 40


# ---------------------------------------------------------------------------
# Workload family
# ---------------------------------------------------------------------------

class TestNamespaceWorkload:
    @pytest.mark.parametrize("pattern", PATTERNS)
    def test_every_pattern_runs(self, pattern):
        tree = NamespaceTreeSpec(files=200, depth=1, fanout=4)
        result = run_namespace_once(
            TestbedConfig(num_clients=2, seed=3), tree,
            NamespaceWorkload(pattern=pattern, ops=24))
        assert result.ops + result.errors == 24
        assert result.ops > 0
        assert result.ops_per_s > 0

    def test_summary_is_deterministic(self):
        tree = NamespaceTreeSpec(files=300, depth=0)
        workload = NamespaceWorkload(pattern="stat", ops=50)
        config = TestbedConfig(num_clients=2, seed=5)
        a = run_namespace_once(config, tree, workload).summary()
        b = run_namespace_once(config, tree, workload).summary()
        assert canonical(a) == canonical(b)

    def test_distinct_seeds_distinct_interleavings(self):
        tree = NamespaceTreeSpec(files=300, depth=0)
        workload = NamespaceWorkload(pattern="stat", ops=50)
        a = run_namespace_once(TestbedConfig(num_clients=2, seed=5),
                               tree, workload).summary()
        b = run_namespace_once(TestbedConfig(num_clients=2, seed=6),
                               tree, workload).summary()
        assert canonical(a) != canonical(b)

    def test_stat_workload_counts_walks_and_attr_traffic(self):
        result = run_namespace_once(
            TestbedConfig(seed=1), NamespaceTreeSpec(files=200),
            NamespaceWorkload(pattern="stat", ops=40))
        assert result.mount_stats["path_walks"] >= 40
        assert result.mount_stats["attr_hits"] \
            + result.mount_stats["attr_misses"] >= 40

    def test_bench_collect_metric_over_namespace(self):
        from repro.campaign import (CampaignOptions, bench_spec,
                                    fold_bench, run_spec_campaign)
        spec = bench_spec(2, workload="namespace", pattern="stat",
                          files=150, ops=20, seed=2)
        outcome = run_spec_campaign(
            spec, options=CampaignOptions(workers=1))
        record = fold_bench(spec, outcome.fold())
        assert len(record["ops_per_s"]) == 2
        assert all(value > 0 for value in record["ops_per_s"])

    def test_campaign_bench_cell_routes_namespace(self):
        from repro.campaign.cells import CampaignSpec, run_bench_cell
        spec = CampaignSpec(kind="bench", cells=1, params={
            "workload": "namespace", "pattern": "list", "files": 150,
            "tree_depth": 1, "fanout": 4, "ops": 15, "seed": 4})
        result = run_bench_cell(spec, 0)
        assert result["ops_per_s"] > 0
        assert result["errors"] == 0

    def test_campaign_fold_uses_ops_per_s(self, tmp_path):
        from repro.campaign import CampaignOptions
        from repro.campaign.drivers import (bench_spec,
                                            run_bench_campaign)
        spec = bench_spec(2, workload="namespace", pattern="stat",
                          files=120, ops=12, seed=0)
        record, outcome = run_bench_campaign(
            spec, str(tmp_path / "journal.jsonl"),
            options=CampaignOptions(workers=2, retry_backoff=0.01))
        assert outcome.complete
        assert record["workload"] == "namespace"
        assert len(record["ops_per_s"]) == 2
        assert record["mean_ops_s"] > 0


# ---------------------------------------------------------------------------
# Capture -> replay, format v1/v2
# ---------------------------------------------------------------------------

class TestNamespaceCaptureReplay:
    @pytest.fixture(scope="class")
    def captured(self):
        tree = NamespaceTreeSpec(files=150, depth=1, fanout=4)
        workload = NamespaceWorkload(pattern="edit", ops=30)
        result = run_namespace_once(
            TestbedConfig(num_clients=2, seed=9, capture_trace=True),
            tree, workload)
        assert result.trace is not None
        return result.trace

    def test_capture_contains_namespace_ops(self, captured):
        ops = {record.op for record in captured.records}
        assert {"stat", "create", "rename"} <= ops

    def test_dumps_loads_round_trip_byte_identical(self, captured):
        from repro.replay import dumps_trace, loads_trace
        text = dumps_trace(captured)
        assert dumps_trace(loads_trace(text)) == text

    def test_namespace_trace_is_version_2(self, captured):
        from repro.replay import dumps_trace
        header = json.loads(dumps_trace(captured).splitlines()[0])
        assert header["version"] == 2

    def test_closed_loop_replay_drives_namespace_ops(self, captured):
        from repro.replay.engine import replay_trace
        target = TestbedConfig(transport="tcp", seed=1)
        result = replay_trace(captured, target)
        summary = result.summary()
        assert summary["ops_completed"] > 0
        # Replay tolerates the workload's own close-to-open races but
        # must not fail wholesale.
        assert summary["errors"] <= summary["offered_ops"] * 0.2

    def test_open_loop_replay_drives_namespace_ops(self, captured):
        from repro.replay.engine import OPEN_LOOP, replay_trace
        result = replay_trace(captured, TestbedConfig(seed=1),
                              mode=OPEN_LOOP, time_scale=4.0)
        assert result.summary()["ops_completed"] > 0


class TestFormatVersions:
    def _v1_trace(self):
        from repro.replay import TraceFile, TraceHeader
        from repro.trace.records import TraceRecord
        header = TraceHeader(block_size=8192,
                             fileset=(("data", 65536),), seed=0,
                             clients=1)
        records = [TraceRecord(time=0.1, fh=1, offset=0, count=8192,
                               client_seq=0, op="read", path="data")]
        return TraceFile(header=header, records=records)

    def test_v1_vocabulary_stays_version_1(self):
        from repro.replay import dumps_trace
        text = dumps_trace(self._v1_trace())
        assert json.loads(text.splitlines()[0])["version"] == 1
        assert "p2" not in text

    def test_rename_record_promotes_to_v2_with_p2(self):
        from repro.replay import TraceFile, dumps_trace, loads_trace
        from repro.trace.records import TraceRecord
        base = self._v1_trace()
        records = base.records + [
            TraceRecord(time=0.2, fh=2, offset=0, count=0,
                        client_seq=1, op="rename", path="data",
                        path2="data2")]
        text = dumps_trace(TraceFile(header=base.header,
                                     records=records))
        lines = text.splitlines()
        assert json.loads(lines[0])["version"] == 2
        assert json.loads(lines[-1])["p2"] == "data2"
        loaded = loads_trace(text)
        assert loaded.records[-1].path2 == "data2"

    def test_unknown_version_rejected(self):
        from repro.replay import TraceFormatError, dumps_trace, \
            loads_trace
        text = dumps_trace(self._v1_trace())
        lines = text.splitlines()
        header = json.loads(lines[0])
        header["version"] = 3
        with pytest.raises(TraceFormatError):
            loads_trace("\n".join([json.dumps(header)] + lines[1:])
                        + "\n")

    def test_multiplex_preserves_path2(self):
        from repro.replay import TraceFile, dumps_trace
        from repro.replay.scale import multiplex_trace
        from repro.trace.records import TraceRecord
        base = self._v1_trace()
        trace = TraceFile(header=base.header, records=base.records + [
            TraceRecord(time=0.2, fh=2, offset=0, count=0,
                        client_seq=1, op="rename", path="data",
                        path2="data2")])
        wide = multiplex_trace(trace, 3, seed=0)
        renames = [r for r in wide.records if r.op == "rename"]
        assert renames
        assert all(r.path2 for r in renames)


# ---------------------------------------------------------------------------
# Detectors on real runs
# ---------------------------------------------------------------------------

def _findings(result, name):
    from repro.diagnose import DiagnosisInputs, run_detectors
    inputs = DiagnosisInputs(snapshots=[result.metrics])
    return [f for f in run_detectors(inputs) if f.detector == name]


def metered_run(config, tree, workload):
    """One namespace run with the metrics registry on."""
    with observe(metrics=True):
        return run_namespace_once(config, tree, workload)


class TestMetadataDetectorsOnRealRuns:
    def test_attrcache_staleness_fires_on_default_acregmax(self):
        # Two clients editing over each other under the default 60 s
        # attribute window: a material fraction of cache answers are
        # stale, and the detector must say so, citing the mount knob.
        result = metered_run(
            TestbedConfig(num_clients=2, seed=0),
            NamespaceTreeSpec(files=400, depth=1, fanout=4),
            NamespaceWorkload(pattern="edit", ops=80))
        findings = _findings(result, "attrcache")
        assert len(findings) == 1
        finding = findings[0]
        assert finding.evidence["acregmax_s"] == 60.0
        assert finding.evidence["stale_rate"] >= 0.05
        assert "§8" in finding.paper_section

    def test_attrcache_silent_when_cache_disabled(self):
        # Both attribute windows at 0: every answer asks the server —
        # nothing can be stale.  (acregmax=0 alone still leaves the
        # *directory* cache serving stale directory attributes.)
        result = metered_run(
            TestbedConfig(num_clients=2, seed=0,
                          acregmax=0.0, acregmin=0.0,
                          acdirmax=0.0, acdirmin=0.0),
            NamespaceTreeSpec(files=400, depth=1, fanout=4),
            NamespaceWorkload(pattern="edit", ops=80))
        assert _findings(result, "attrcache") == []

    def test_lookup_storm_fires_with_name_cache_off(self):
        result = metered_run(
            TestbedConfig(seed=0, acdirmax=0.0,
                          acdirmin=0.0, acregmax=0.0, acregmin=0.0),
            NamespaceTreeSpec(files=200, depth=2, fanout=4),
            NamespaceWorkload(pattern="stat", ops=80))
        findings = _findings(result, "lookupstorm")
        assert len(findings) == 1
        assert findings[0].evidence["rpcs_per_walk"] >= 2.0

    def test_lookup_storm_silent_with_warm_name_cache(self):
        result = metered_run(
            TestbedConfig(seed=0),
            NamespaceTreeSpec(files=200, depth=2, fanout=4),
            NamespaceWorkload(pattern="stat", ops=80))
        assert _findings(result, "lookupstorm") == []

    def test_readdir_chunking_fires_on_flat_tree_small_replies(self):
        result = metered_run(
            TestbedConfig(seed=0, readdir_count=1024),
            NamespaceTreeSpec(files=1500, depth=0),
            NamespaceWorkload(pattern="list", ops=15))
        findings = _findings(result, "readdir")
        assert len(findings) == 1
        assert findings[0].evidence["rpcs_per_listing"] >= 8.0

    def test_readdir_silent_on_small_directories(self):
        result = metered_run(
            TestbedConfig(seed=0),
            NamespaceTreeSpec(files=64, depth=1, fanout=8),
            NamespaceWorkload(pattern="list", ops=15))
        assert _findings(result, "readdir") == []


class TestExportedFilesEnumeration:
    def test_exported_tree_visible_and_replay_header_complete(self):
        # Satellite 1: the export inventory walks the whole tree, so a
        # capture header's fileset re-creates every file on replay.
        tree = NamespaceTreeSpec(files=60, depth=1, fanout=4)
        result = run_namespace_once(
            TestbedConfig(seed=2, capture_trace=True), tree,
            NamespaceWorkload(pattern="stat", ops=10))
        exported = dict(result.trace.header.fileset)
        for path, size in tree.paths():
            assert exported.get(path) == size
