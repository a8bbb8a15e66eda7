"""Integration tests: the full NFS client/server path."""

from functools import partial

import pytest

import repro.nfs.protocol as protocol
from repro.bench.readers import ReaderResult, stride_reader
from repro.host import TestbedConfig, build_nfs_testbed
from repro.nfs import (CreateRequest, NFS_READ_SIZE, NfsServer,
                       RemoveReply)
from repro.nfs.server import CPU_PER_CALL

BLOCK = NFS_READ_SIZE
MB = 1 << 20


def read_file_via_nfs(testbed, name, chunks):
    """Read a file through the mount; returns total bytes read."""

    def reader(sim):
        nfile = yield from testbed.mount.open(name)
        total = 0
        for offset, nbytes in chunks:
            got = yield from testbed.mount.read(nfile, offset, nbytes)
            total += got
        return total

    process = testbed.sim.spawn(reader(testbed.sim))
    return testbed.sim.run_until_complete(process)


class TestReadPath:
    def test_full_file_read_returns_every_byte(self):
        testbed = build_nfs_testbed(TestbedConfig())
        testbed.server.export_file("data", 2 * MB)
        chunks = [(offset, 64 * 1024)
                  for offset in range(0, 2 * MB, 64 * 1024)]
        assert read_file_via_nfs(testbed, "data", chunks) == 2 * MB

    def test_read_clamped_at_eof(self):
        testbed = build_nfs_testbed(TestbedConfig())
        testbed.server.export_file("data", BLOCK + 100)
        got = read_file_via_nfs(testbed, "data", [(BLOCK, BLOCK)])
        assert got == 100

    def test_read_past_eof_returns_zero(self):
        testbed = build_nfs_testbed(TestbedConfig())
        testbed.server.export_file("data", BLOCK)
        assert read_file_via_nfs(testbed, "data", [(5 * BLOCK, BLOCK)]) \
            == 0

    def test_server_counts_reads(self):
        testbed = build_nfs_testbed(TestbedConfig())
        testbed.server.export_file("data", 1 * MB)
        chunks = [(offset, BLOCK) for offset in range(0, MB, BLOCK)]
        read_file_via_nfs(testbed, "data", chunks)
        assert testbed.server.stats.reads >= MB // BLOCK
        assert testbed.server.stats.bytes_served >= MB

    def test_client_cache_hit_on_reread(self):
        testbed = build_nfs_testbed(TestbedConfig())
        testbed.server.export_file("data", 4 * BLOCK)
        read_file_via_nfs(testbed, "data",
                          [(0, BLOCK), (0, BLOCK)])
        assert testbed.mount.stats.cache_hits >= 1

    def test_flush_cache_forces_rpc_again(self):
        testbed = build_nfs_testbed(TestbedConfig())
        testbed.server.export_file("data", 4 * BLOCK)
        read_file_via_nfs(testbed, "data", [(0, BLOCK)])
        before = testbed.mount.stats.rpc_reads
        testbed.flush_caches()
        read_file_via_nfs(testbed, "data", [(0, BLOCK)])
        assert testbed.mount.stats.rpc_reads > before

    @pytest.mark.parametrize("transport", ["udp", "tcp"])
    def test_both_transports_deliver_everything(self, transport):
        testbed = build_nfs_testbed(TestbedConfig(transport=transport))
        testbed.server.export_file("data", MB)
        chunks = [(offset, 128 * 1024)
                  for offset in range(0, MB, 128 * 1024)]
        assert read_file_via_nfs(testbed, "data", chunks) == MB

    def test_sequential_read_triggers_client_readahead(self):
        testbed = build_nfs_testbed(TestbedConfig())
        testbed.server.export_file("data", MB)
        chunks = [(offset, BLOCK) for offset in range(0, MB, BLOCK)]
        read_file_via_nfs(testbed, "data", chunks)
        assert testbed.mount.stats.readahead_issued > 0

    def test_stride_read_skips_client_readahead(self):
        testbed = build_nfs_testbed(TestbedConfig())
        testbed.server.export_file("data", MB)
        result = ReaderResult("data")
        process = testbed.sim.spawn(stride_reader(
            testbed.sim, partial(testbed.mount.open, "data"),
            testbed.mount.read, MB, 8, result))
        testbed.sim.run_until_complete(process)
        # A fresh handle's first access looks sequential (warmup), so a
        # couple of read-aheads may fire before the stride is detected.
        assert testbed.mount.stats.readahead_issued <= 2
        assert result.bytes_read == MB // BLOCK * BLOCK

    def test_unknown_transport_rejected(self):
        with pytest.raises(ValueError):
            build_nfs_testbed(TestbedConfig(transport="sctp"))


class TestHeuristicPlumbing:
    def test_always_heuristic_maximizes_server_seqcount(self):
        always = build_nfs_testbed(TestbedConfig(
            server_heuristic="always"))
        default = build_nfs_testbed(TestbedConfig(
            server_heuristic="default"))
        for testbed in (always, default):
            testbed.server.export_file("data", MB)
            chunks = [(offset, BLOCK) for offset in range(0, MB, BLOCK)]
            read_file_via_nfs(testbed, "data", chunks)
        assert always.server.stats.mean_seqcount > \
            default.server.stats.mean_seqcount

    def test_nfsheur_table_populated(self):
        testbed = build_nfs_testbed(TestbedConfig())
        testbed.server.export_file("data", 4 * BLOCK)
        read_file_via_nfs(testbed, "data", [(0, BLOCK)])
        fh = testbed.server.fh_of("data")
        assert testbed.server.nfsheur.resident(fh)

    def test_heuristic_options_forwarded(self):
        testbed = build_nfs_testbed(TestbedConfig(
            server_heuristic="cursor",
            heuristic_options={"cursor_limit": 3}))
        assert testbed.server.heuristic.cursor_limit == 3


class TestProcedureTables:
    def test_server_and_client_tables_cover_every_request(self):
        requests = {value for name, value in vars(protocol).items()
                    if name.endswith("Request") and isinstance(value, type)}
        assert set(NfsServer.PROCEDURES) == set(protocol.REPLY_TYPES) \
            == requests

    def test_unknown_request_raises_type_error(self):
        testbed = build_nfs_testbed(TestbedConfig())
        with pytest.raises(TypeError):
            next(testbed.server.handle("not an NFS request"))

    def test_reply_of_the_wrong_type_raises_type_error(self):
        testbed = build_nfs_testbed(TestbedConfig())
        server = testbed.server

        def remove_reply(server, request, span, rpc_key):
            yield from server.machine.execute(CPU_PER_CALL)
            return RemoveReply()

        server.PROCEDURES = {**NfsServer.PROCEDURES,
                             CreateRequest: (remove_reply, False)}
        process = testbed.sim.spawn(testbed.mount.create("new"))
        with pytest.raises(TypeError, match="CreateRequest"):
            testbed.sim.run_until_complete(process)
