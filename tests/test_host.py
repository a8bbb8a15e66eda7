"""Unit tests for the machine model and testbed builders."""

import os
import random
import subprocess
import sys

import pytest

from repro.host import (DRIVE_SPECS, Machine, TestbedConfig,
                        build_local_testbed, build_nfs_testbed)
from repro.host.machine import BASE_JITTER, JITTER_PER_HOG, SLOWDOWN_PER_HOG
from repro.kernel import ElevatorQueue
from repro.sim import Simulator


class TestMachine:
    def test_execute_charges_time(self):
        sim = Simulator()
        machine = Machine(sim, "m", rng=random.Random(0))

        def worker(sim):
            yield from machine.execute(0.5)

        sim.run_until_complete(sim.spawn(worker(sim)))
        assert sim.now == pytest.approx(0.5)
        assert machine.cpu_time_consumed == pytest.approx(0.5)

    def test_busy_loops_dilate_execution(self):
        sim = Simulator()
        machine = Machine(sim, "m", rng=random.Random(0),
                          busy_processes=4)

        def worker(sim):
            yield from machine.execute(1.0)

        sim.run_until_complete(sim.spawn(worker(sim)))
        assert sim.now == pytest.approx(1.0 + 4 * SLOWDOWN_PER_HOG)

    def test_cpu_serialises_concurrent_work(self):
        sim = Simulator()
        machine = Machine(sim, "m", rng=random.Random(0))
        finished = []

        def worker(sim, tag):
            yield from machine.execute(1.0)
            finished.append((tag, sim.now))

        sim.spawn(worker(sim, "a"))
        sim.spawn(worker(sim, "b"))
        sim.run()
        assert finished[1][1] == pytest.approx(2.0)

    def test_jitter_bounded_and_seeded(self):
        machine = Machine(Simulator(), "m", rng=random.Random(1),
                          busy_processes=2)
        ceiling = BASE_JITTER + 2 * JITTER_PER_HOG
        samples = [machine.scheduling_jitter() for _ in range(100)]
        assert all(0 <= sample <= ceiling for sample in samples)
        assert len(set(samples)) > 1

    def test_negative_work_rejected(self):
        machine = Machine(Simulator(), "m")
        with pytest.raises(ValueError):
            list(machine.execute(-1.0))


class TestTestbedConfig:
    def test_fs_label(self):
        assert TestbedConfig(drive="scsi", partition=4).fs_label() == \
            "scsi4"

    def test_with_seed_preserves_rest(self):
        config = TestbedConfig(drive="scsi", transport="tcp")
        reseeded = config.with_seed(99)
        assert reseeded.seed == 99
        assert reseeded.drive == "scsi"
        assert reseeded.transport == "tcp"

    def test_unknown_drive_rejected(self):
        with pytest.raises(ValueError):
            build_local_testbed(TestbedConfig(drive="floppy"))

    def test_bad_partition_rejected(self):
        with pytest.raises(ValueError):
            build_local_testbed(TestbedConfig(partition=5))

    def test_unknown_nfsheur_rejected(self):
        with pytest.raises(ValueError):
            build_nfs_testbed(TestbedConfig(nfsheur="gigantic"))


class TestBuilders:
    def test_local_testbed_components(self):
        testbed = build_local_testbed(TestbedConfig(drive="ide",
                                                    partition=2))
        assert testbed.drive.geometry.name == DRIVE_SPECS["ide"].name
        assert testbed.partition.name == "ide2"
        assert isinstance(testbed.iosched._bufq, ElevatorQueue)

    def test_partition_selects_lba_range(self):
        outer = build_local_testbed(TestbedConfig(partition=1))
        inner = build_local_testbed(TestbedConfig(partition=4))
        assert outer.partition.first_lba < inner.partition.first_lba

    def test_nfs_testbed_wires_everything(self):
        testbed = build_nfs_testbed(TestbedConfig(transport="udp"))
        assert testbed.mount.config.transport == "udp"
        assert testbed.server.nfsds.capacity == 8
        assert testbed.mount.nfsiods.capacity == 8

    def test_nfs_testbed_does_not_import_numpy(self):
        # Importing numpy alone adds over 10 MB to a process's peak RSS;
        # the CLI and a tagged-queue testbed must not pull it in.
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        script = ("import sys\n"
                  "import repro.cli\n"
                  "from repro.host import TestbedConfig, "
                  "build_nfs_testbed\n"
                  "build_nfs_testbed(TestbedConfig(drive='scsi'))\n"
                  "print('numpy' in sys.modules)\n")
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "False"

    def test_busy_loops_propagate(self):
        testbed = build_nfs_testbed(TestbedConfig(client_busy_loops=4))
        assert testbed.client_machine.busy_processes == 4
        assert testbed.machine.busy_processes == 0

    def test_tagged_queueing_override(self):
        no_tags = build_local_testbed(TestbedConfig(
            drive="scsi", tagged_queueing=False))
        assert no_tags.drive.queue_limit == 1

    def test_same_seed_same_layout(self):
        first = build_local_testbed(TestbedConfig(seed=5,
                                                  fragmentation=0.5))
        second = build_local_testbed(TestbedConfig(seed=5,
                                                   fragmentation=0.5))
        a = first.fs.create_file("f", 1 << 20)
        b = second.fs.create_file("f", 1 << 20)
        assert [(e.disk_block, e.nblocks) for e in a.extents] == \
            [(e.disk_block, e.nblocks) for e in b.extents]


class TestMultiClient:
    def test_default_is_single_client(self):
        testbed = build_nfs_testbed(TestbedConfig())
        assert len(testbed.mounts) == 1
        assert testbed.mount is testbed.mounts[0]

    def test_clients_get_own_machines_and_mounts(self):
        testbed = build_nfs_testbed(TestbedConfig(num_clients=3))
        assert len(testbed.mounts) == 3
        assert len(testbed.client_machines) == 3
        assert len({id(m) for m in testbed.client_machines}) == 3

    def test_mount_for_round_robin(self):
        testbed = build_nfs_testbed(TestbedConfig(num_clients=2))
        assert testbed.mount_for(0) is testbed.mounts[0]
        assert testbed.mount_for(1) is testbed.mounts[1]
        assert testbed.mount_for(2) is testbed.mounts[0]

    def test_zero_clients_rejected(self):
        import pytest as _pytest
        with _pytest.raises(ValueError):
            build_nfs_testbed(TestbedConfig(num_clients=0))

    def test_all_clients_share_one_server(self):
        from repro.bench.runner import run_nfs_once
        result = run_nfs_once(TestbedConfig(num_clients=2), 4,
                              scale=1 / 64)
        # 256 MB / 64 = 4 MiB total, regardless of client count.
        assert result.total_bytes == 4 * (1 << 20)

    def test_rsize_configures_mount(self):
        testbed = build_nfs_testbed(TestbedConfig(rsize=16 * 1024))
        assert testbed.mount.config.read_size == 16 * 1024

    def test_rsize_reduces_rpc_count(self):
        from repro.bench.runner import run_nfs_once
        small = run_nfs_once(TestbedConfig(rsize=8 * 1024), 1,
                             scale=1 / 64)
        big = run_nfs_once(TestbedConfig(rsize=32 * 1024), 1,
                           scale=1 / 64)
        assert small.total_bytes == big.total_bytes
