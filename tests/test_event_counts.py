"""Exact event-count gate: what the simulator's own bookkeeping costs.

The modelled work of a replayed READ (frames on the wire, CPU charges,
RPCs) is fixed by the workload; the kernel entries and processes the
simulator spends to model it are its own overhead.  Both are
deterministic, so they are gated exactly here.  A change that puts a
process back on a per-frame, per-ACK or per-charge path fails with the
count diff; a change that removes more updates the expected numbers and
says so in CHANGES.md.
"""

from collections import Counter
from dataclasses import replace

import pytest

from repro.host.testbed import TestbedConfig
from repro.net import GIGABIT, SERVER_PCI_DMA, Link
from repro.replay import capture_nfs_run, replay_trace
from repro.sim import Process, RateLimiter, Simulator

#: target transport -> (kernel pushes, Process constructions, ops).
EXPECTED = {
    "tcp": (23_947, 2_187, 130),
    "udp": (18_177, 2_216, 130),
}


@pytest.fixture
def counts(monkeypatch):
    """Count every kernel push and every Process built while active."""
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

    monkeypatch.setattr(Simulator, "__init__", counting_sim_init)
    monkeypatch.setattr(Process, "__init__", counting_process_init)
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
