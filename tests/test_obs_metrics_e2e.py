"""End-to-end metrics accounting: the layers must sum to the client.

A seeded single-reader sequential run over NFS/UDP with read-ahead
disabled (client ``READAHEAD_BLOCKS = 0``, server heuristic ``none``)
keeps exactly one request in flight at a time, so the per-layer latency
histograms must tile the client-observed elapsed time exactly:

* reader elapsed  = client marshal/receive CPU + sum of RPC RTTs
* RTT total       = wire time (both directions) + server handle time
* handle total    = nfsd queue wait + per-op service time
* READ service    = server CPU + file-system read time
* fs read         = buffer-cache wait + per-call FFS read overhead

Any drift beyond float-summation error means a layer is double-counted
or unaccounted — exactly the bug class this battery exists to catch.
"""

import pytest

import repro.nfs.client
from repro.bench.readers import ReaderResult, sequential_reader
from repro.ffs.filesystem import READ_OVERHEAD
from repro.host.testbed import TestbedConfig, build_nfs_testbed
from repro.obs import observe

REL_TOL = 1e-9
SIZE = 512 * 1024


@pytest.fixture(scope="module")
def accounted_run():
    """One clean, metered, single-reader sequential NFS read."""
    config = TestbedConfig(drive="scsi", partition=1, transport="udp",
                           server_heuristic="none", seed=3)
    with observe(metrics=True), pytest.MonkeyPatch.context() as patch:
        # No client read-ahead: every block is fetched synchronously,
        # so the reader's elapsed time decomposes exactly.
        patch.setattr(repro.nfs.client, "READAHEAD_BLOCKS", 0)
        return _run_reader(build_nfs_testbed(config))


def _run_reader(testbed):
    testbed.server.export_file("f0", SIZE)
    result = ReaderResult("f0")

    def open_fn(span=None):
        nfile = yield from testbed.mount.open("f0", span=span)
        return nfile

    def read_fn(handle, offset, nbytes, span=None):
        got = yield from testbed.mount.read(handle, offset, nbytes,
                                            span=span)
        return got

    testbed.sim.spawn(
        sequential_reader(testbed.sim, open_fn, read_fn, SIZE, result,
                          tracer=testbed.obs.tracer),
        name="reader:f0")
    testbed.sim.run()
    assert result.bytes_read == SIZE
    return result, testbed.obs.registry.snapshot(), READ_OVERHEAD


def hist_sum(snapshot, name):
    hist = snapshot["histograms"].get(name)
    return hist["sum"] if hist else 0.0


def hist_count(snapshot, name):
    hist = snapshot["histograms"].get(name)
    return hist["count"] if hist else 0


def prefixed_sum(snapshot, prefix):
    return sum(hist["sum"]
               for name, hist in snapshot["histograms"].items()
               if name.startswith(prefix))


class TestLayerAccounting:
    def test_client_layers_sum_to_reader_elapsed(self, accounted_run):
        result, snap, _overhead = accounted_run
        accounted = (hist_sum(snap, "nfs.client.cpu_s")
                     + prefixed_sum(snap, "nfs.client.rtt_s.")
                     + hist_sum(snap, "nfs.client.nfsiod_wait_s"))
        assert result.elapsed == pytest.approx(accounted, rel=REL_TOL)

    def test_rtt_splits_into_wire_plus_server_handle(self, accounted_run):
        _result, snap, _overhead = accounted_run
        rtt = prefixed_sum(snap, "nfs.client.rtt_s.")
        assert rtt == pytest.approx(
            hist_sum(snap, "net.wire_s")
            + hist_sum(snap, "rpc.server.handle_s"), rel=REL_TOL)
        # One RPC at a time: each call crosses the wire exactly twice.
        rtt_count = sum(
            hist["count"] for name, hist in snap["histograms"].items()
            if name.startswith("nfs.client.rtt_s."))
        assert hist_count(snap, "net.wire_s") == 2 * rtt_count

    def test_handle_splits_into_queue_wait_plus_service(
            self, accounted_run):
        _result, snap, _overhead = accounted_run
        assert hist_sum(snap, "rpc.server.handle_s") == pytest.approx(
            hist_sum(snap, "nfs.server.nfsd_wait_s")
            + prefixed_sum(snap, "nfs.server.service_s."), rel=REL_TOL)

    def test_read_service_splits_into_cpu_plus_fsread(
            self, accounted_run):
        _result, snap, _overhead = accounted_run
        assert hist_sum(snap, "nfs.server.service_s.ReadRequest") == \
            pytest.approx(hist_sum(snap, "nfs.server.cpu_s")
                          + hist_sum(snap, "nfs.server.fsread_s"),
                          rel=REL_TOL)

    def test_fsread_splits_into_cache_wait_plus_overhead(
            self, accounted_run):
        _result, snap, read_overhead = accounted_run
        n_reads = hist_count(snap, "nfs.server.fsread_s")
        assert n_reads == hist_count(snap, "ffs.cache_wait_s")
        assert hist_sum(snap, "nfs.server.fsread_s") == pytest.approx(
            hist_sum(snap, "ffs.cache_wait_s")
            + n_reads * read_overhead, rel=REL_TOL)

    def test_block_wait_never_exceeds_elapsed(self, accounted_run):
        result, snap, _overhead = accounted_run
        assert hist_sum(snap, "nfs.client.block_wait_s") <= \
            result.elapsed * (1 + REL_TOL)

    def test_disk_bytes_by_zone_cover_the_file(self, accounted_run):
        _result, snap, _overhead = accounted_run
        zone_bytes = sum(
            value for name, value in snap["gauges"].items()
            if name.startswith("disk.zone") and
            name.endswith(".bytes_read"))
        assert zone_bytes >= SIZE


class TestTracedRunExport:
    """Acceptance: a traced NFS run exports Perfetto-loadable JSON with
    spans for every request-path layer."""

    @pytest.fixture(scope="class")
    def traced_session(self):
        from repro.bench.runner import run_nfs_once
        from repro.obs import observe

        config = TestbedConfig(drive="scsi", partition=1,
                               transport="udp", seed=7)
        with observe(trace=True) as session:
            run_nfs_once(config, 2, scale=1 / 64)
        return session

    def test_all_request_path_layers_present(self, traced_session):
        from repro.obs.export import LAYER_CATEGORIES

        categories = {span.cat for span in traced_session.spans}
        missing = [cat for cat in LAYER_CATEGORIES
                   if cat not in categories]
        assert missing == []

    def test_stream_is_well_formed(self, traced_session):
        from repro.obs import check_well_formed

        assert check_well_formed(traced_session.spans) == []

    def test_json_is_trace_event_format(self, traced_session):
        import json

        payload = json.loads(traced_session.trace_json())
        events = payload["traceEvents"]
        assert len(events) == len(traced_session.spans)
        for event in events[:50]:
            assert event["ph"] == "X"
            assert set(event) >= {"name", "cat", "ts", "dur",
                                  "pid", "tid", "args"}
