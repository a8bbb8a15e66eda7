"""Exact event-count gate: what the simulator's own bookkeeping costs.

The modelled work of a replayed READ (frames on the wire, CPU charges,
RPCs) is fixed by the workload; the kernel entries and processes the
simulator spends to model it are its own overhead.  Both are
deterministic, so they are gated exactly here, on a replay and on two
points of the NFS sweeps where tier-1 spends its time: a small UDP fig4
cell and a lossy one whose RPC retransmission timer fires.  A change
that puts a process back on a per-frame, per-ACK or per-charge path
fails with the count diff; a change that removes more updates the
expected numbers and says so in CHANGES.md.
"""

import random
from collections import Counter
from dataclasses import replace

import pytest

from repro.bench.runner import run_faulted_once, run_nfs_once
from repro.disk import DiskDrive
from repro.faults import FaultSpec, NetworkFaults
from repro.host import Machine
from repro.host.testbed import TestbedConfig
from repro.net import GIGABIT, SERVER_PCI_DMA, Link, RpcClient
from repro.replay import capture_nfs_run, replay_trace
from repro.sim import Process, RateLimiter, Simulator

#: target transport -> (kernel pushes, Process constructions, ops).
EXPECTED = {
    "tcp": (17_787, 2_055, 130),
    "udp": (12_946, 2_081, 130),
}


#: One fig4 point, 4 UDP readers on ide1 at scale 1/32:
#: (kernel pushes, Process constructions, RPC calls).
FIG4_UDP = (12_627, 1_852, 1_029)

#: The same testbed with 2 readers over xfaults' lossy network (2% mean
#: loss in bursts of 4 frames, hard mount), so the RPC retransmission
#: timer fires: (kernel pushes, Process constructions, RPC calls).
FAULTED_UDP = (18_216, 2_604, 1_347)


@pytest.fixture
def counts(monkeypatch):
    """Count every kernel push, Process built and RPC call while active."""
    counter = Counter()
    sim_init = Simulator.__init__
    process_init = Process.__init__

    def counting_sim_init(sim, *args, **kwargs):
        sim_init(sim, *args, **kwargs)
        push = sim._push

        def counted_push(when, entry):
            counter["pushes"] += 1
            push(when, entry)
        sim._push = counted_push

    def counting_process_init(process, *args, **kwargs):
        counter["processes"] += 1
        process_init(process, *args, **kwargs)

    def counting_call(client, *args, **kwargs):
        counter["rpc_calls"] += 1
        return rpc_call(client, *args, **kwargs)

    rpc_call = RpcClient.call
    monkeypatch.setattr(Simulator, "__init__", counting_sim_init)
    monkeypatch.setattr(Process, "__init__", counting_process_init)
    monkeypatch.setattr(RpcClient, "call", counting_call)
    return counter


@pytest.fixture(scope="module")
def trace():
    """A small fixed capture: 2 readers on 2 UDP clients."""
    return capture_nfs_run(TestbedConfig(num_clients=2), nreaders=2,
                           scale=0.03125)


class TestReplayCounts:
    @pytest.mark.parametrize("transport", sorted(EXPECTED))
    def test_pushes_and_processes_per_op(self, trace, counts, transport):
        target = replace(TestbedConfig(), transport=transport,
                         server_heuristic="cursor", nfsheur="improved")
        result = replay_trace(trace, target)
        assert result.errors == 0
        got = (counts["pushes"], counts["processes"], result.ops_completed)
        pushes, processes, ops = EXPECTED[transport]
        assert got == EXPECTED[transport], (
            f"{transport}: {got[0] / got[2]:.2f} pushes/op and "
            f"{got[1] / got[2]:.2f} processes/op, expected "
            f"{pushes / ops:.2f} and {processes / ops:.2f}")


class TestLinkSend:
    def test_one_push_and_no_process_per_frame(self, counts):
        sim = Simulator()
        link = Link(sim, GIGABIT, bus=RateLimiter(sim, SERVER_PCI_DMA))
        deliveries = [link.send(1_514) for _ in range(4)]
        assert counts == Counter(pushes=4)
        sim.run()
        assert all(delivery.processed for delivery in deliveries)
        assert counts == Counter(pushes=4)


def per_call(got):
    pushes, processes, calls = got
    return (f"{pushes / calls:.2f} pushes and {processes / calls:.2f} "
            f"processes per RPC, {got}")


class TestSweepCounts:
    def test_fig4_udp_point(self, counts):
        run_nfs_once(TestbedConfig(drive="ide", partition=1,
                                   transport="udp"), 4, scale=0.03125)
        got = (counts["pushes"], counts["processes"], counts["rpc_calls"])
        assert got == FIG4_UDP, per_call(got)

    def test_faulted_udp_point(self, counts, monkeypatch):
        dispatched = Counter()
        submit = DiskDrive.submit

        def counting_submit(drive, request):
            dispatched["requests"] += 1
            return submit(drive, request)

        monkeypatch.setattr(DiskDrive, "submit", counting_submit)
        faults = FaultSpec(network=NetworkFaults.from_mean_loss(
            0.02, burst_frames=4.0))
        result = run_faulted_once(
            TestbedConfig(drive="ide", partition=1, transport="udp",
                          faults=faults), 2, scale=0.03125)
        assert result.retransmits > 0 and dispatched["requests"] > 0
        got = (counts["pushes"], counts["processes"], counts["rpc_calls"])
        assert got == FAULTED_UDP, per_call(got)


class TestMachineExecute:
    def test_one_push_per_charge_on_a_busy_cpu(self, counts):
        sim = Simulator()
        machine = Machine(sim, "m", rng=random.Random(0))
        charges = [machine.execute(0.001) for _ in range(3)]
        finishes = [next(charge) for charge in charges]
        assert counts == Counter(pushes=3)
        sim.run()
        assert all(finish.processed for finish in finishes)
        assert counts == Counter(pushes=3)
