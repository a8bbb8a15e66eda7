"""Unit tests for the kernel dispatch layer."""

from repro.disk import DiskRequest, IBM_DDYS_T36950N, WDC_WD200BB
from repro.kernel import DiskIoScheduler
from repro.sim import Simulator


def build(policy="elevator", tags=None, drive_spec=WDC_WD200BB):
    sim = Simulator()
    drive = drive_spec.build(sim, tagged_queueing=tags)
    return sim, drive, DiskIoScheduler(sim, drive, policy=policy)


class TestDispatch:
    def test_completion_event_fires(self):
        sim, drive, iosched = build()
        request = DiskRequest(lba=0, nsectors=16)
        done = iosched.submit(request)
        sim.run()
        assert done.processed
        assert request.completion > 0

    def test_one_outstanding_without_tags(self):
        sim, drive, iosched = build()
        requests = [DiskRequest(lba=i * 1000, nsectors=16)
                    for i in range(5)]
        for request in requests:
            iosched.submit(request)
        assert drive.outstanding <= 1
        sim.run()
        assert all(r.completion > 0 for r in requests)

    def test_policy_orders_dispatch_without_tags(self):
        sim, drive, iosched = build(policy="elevator",
                                    drive_spec=IBM_DDYS_T36950N,
                                    tags=False)
        lbas = [5000, 1000, 3000]
        for lba in lbas:
            iosched.submit(DiskRequest(lba=lba, nsectors=16))
        sim.run()
        # First dispatched before sorting could happen (pump is eager),
        # remaining two served in ascending order.
        order = drive.stats.service_order
        assert len(order) == 3

    def test_tags_pass_through_up_to_depth(self):
        sim, drive, iosched = build(drive_spec=IBM_DDYS_T36950N,
                                    tags=True)
        for i in range(100):
            iosched.submit(DiskRequest(lba=i * 64, nsectors=16))
        # TCQ depth is 64: the drive may hold up to that many; the rest
        # sit in the kernel queue.
        assert drive.outstanding <= drive.tcq_depth
        assert iosched.queued >= 100 - drive.tcq_depth - 1
        sim.run()

    def test_dispatched_counter(self):
        sim, drive, iosched = build()
        for i in range(4):
            iosched.submit(DiskRequest(lba=i * 64, nsectors=16))
        sim.run()
        assert iosched.dispatched == 4
