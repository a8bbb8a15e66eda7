"""Cross-cutting invariants: conservation, determinism, accounting.

These run a full NFS benchmark and check that the layers agree with
each other — every byte the reader saw was served by the server, every
disk command was serviced exactly once, the drive was never busy for
longer than the run, and the whole thing is bit-for-bit repeatable.
"""

from functools import partial

import pytest

from repro.bench.fileset import files_for_readers
from repro.bench.readers import ReaderResult, sequential_reader
from repro.host import TestbedConfig, build_nfs_testbed

SCALE = 1 / 32


def run_instrumented(config, nreaders=4):
    testbed = build_nfs_testbed(config)
    specs = files_for_readers(nreaders, SCALE)
    for spec in specs:
        testbed.server.export_file(spec.name, spec.size)
    results = []
    for spec in specs:
        result = ReaderResult(spec.name)
        results.append(result)
        testbed.sim.spawn(sequential_reader(
            testbed.sim, partial(testbed.mount.open, spec.name),
            testbed.mount.read, spec.size, result))
    testbed.sim.run()
    return testbed, results


class TestConservation:
    def test_bytes_flow_through_every_layer(self):
        testbed, results = run_instrumented(TestbedConfig())
        total = sum(result.bytes_read for result in results)
        expected = sum(
            spec.size for spec in files_for_readers(4, SCALE))
        assert total == expected
        # The server served at least what the clients consumed
        # (read-ahead may fetch more, never less).
        assert testbed.server.stats.bytes_served >= total
        # Everything served came off the disk exactly once (no reuse
        # in this workload) — drive reads >= file bytes.
        assert testbed.drive.stats.bytes_read >= total

    def test_every_disk_command_serviced_exactly_once(self):
        testbed, _results = run_instrumented(TestbedConfig())
        stats = testbed.drive.stats
        assert sorted(stats.arrival_order) == sorted(stats.service_order)
        assert len(set(stats.service_order)) == len(stats.service_order)

    def test_drive_busy_time_bounded_by_elapsed(self):
        testbed, results = run_instrumented(TestbedConfig())
        elapsed = max(result.finish_time for result in results)
        assert 0 < testbed.drive.stats.busy_time <= elapsed + 1e-9

    def test_cpu_time_bounded_by_elapsed(self):
        testbed, results = run_instrumented(TestbedConfig())
        elapsed = max(result.finish_time for result in results)
        assert testbed.machine.cpu_time_consumed <= elapsed + 1e-9
        assert testbed.client_machine.cpu_time_consumed <= elapsed + 1e-9

    def test_nfsiods_all_returned(self):
        testbed, _results = run_instrumented(TestbedConfig())
        assert testbed.mount.nfsiods.in_use == 0
        assert testbed.server.nfsds.in_use == 0

    def test_no_event_left_behind(self):
        testbed, _results = run_instrumented(TestbedConfig())
        # The simulation drained completely: re-running is a no-op.
        before = testbed.sim.now
        testbed.sim.run()
        assert testbed.sim.now == before


class TestDeterminism:
    @pytest.mark.parametrize("transport", ["udp", "tcp"])
    def test_identical_seeds_identical_timelines(self, transport):
        first, first_results = run_instrumented(
            TestbedConfig(transport=transport, seed=11))
        second, second_results = run_instrumented(
            TestbedConfig(transport=transport, seed=11))
        assert [r.finish_time for r in first_results] == \
            [r.finish_time for r in second_results]
        assert first.drive.stats.service_order == \
            second.drive.stats.service_order or \
            len(first.drive.stats.service_order) == \
            len(second.drive.stats.service_order)

    def test_busy_client_still_deterministic(self):
        first, first_results = run_instrumented(
            TestbedConfig(client_busy_loops=4, seed=5))
        second, second_results = run_instrumented(
            TestbedConfig(client_busy_loops=4, seed=5))
        assert [r.finish_time for r in first_results] == \
            [r.finish_time for r in second_results]

    def test_heuristic_choice_does_not_consume_randomness(self):
        """Swapping the heuristic must not perturb unrelated draws:
        the layout (allocator stream) is identical either way."""
        a = build_nfs_testbed(TestbedConfig(server_heuristic="default",
                                            seed=3))
        b = build_nfs_testbed(TestbedConfig(server_heuristic="cursor",
                                            seed=3))
        inode_a = a.fs.create_file("f", 1 << 20)
        inode_b = b.fs.create_file("f", 1 << 20)
        assert inode_a.first_disk_block() == inode_b.first_disk_block()
