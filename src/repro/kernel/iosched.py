"""The kernel's dispatch layer between the buffer cache and the drive.

With tagged command queueing *off*, the kernel queue (elevator or
N-CSCAN) is the scheduler: one command is outstanding at the drive and
the queue picks each successor — this is the regime where the paper's
bufq experiments (Figure 3) are visible.

With tagged command queueing *on*, the kernel pushes commands to the
drive as fast as the drive's queue accepts them (up to ``tcq_depth``),
and the firmware decides order; the kernel queue only buffers overflow.
That is how enabling tags "overrides many of the scheduling decisions
made by the host" (§5.3).

A small per-dispatch CPU cost models the driver/interrupt path.
"""

from __future__ import annotations

from ..disk.drive import DiskDrive
from ..disk.request import DiskRequest
from ..obs.provenance import OvertakeLog
from ..sim import Event, Simulator
from .bufq import BufQueue, make_bufq

#: Per-dispatch CPU cost of the driver/interrupt path, in seconds.
DISPATCH_OVERHEAD = 0.00005


class DiskIoScheduler:
    """Feeds a drive from a kernel queue (elevator or N-CSCAN).

    The queue is fixed for the scheduler's life; the paper's policy
    comparison (Figure 3) builds one testbed per ``bufq_policy``.
    """

    def __init__(self, sim: Simulator, drive: DiskDrive,
                 policy: str = "elevator"):
        self.sim = sim
        self.drive = drive
        self._bufq: BufQueue = make_bufq(policy)
        self._in_flight = 0
        self.dispatched = 0
        self._obs_on = sim.obs.enabled
        #: Queue residency, insert-to-dispatch.
        self._m_wait = sim.obs.registry.histogram("kernel.bufq.wait_s")
        #: request id -> (span, insert time) while queued.
        self._pending_obs = {}
        #: Overtakes in the queue (provenance runs only).
        self._overtakes = OvertakeLog(sim.obs.prov)

    # ------------------------------------------------------------------

    @property
    def queued(self) -> int:
        return len(self._bufq)

    # ------------------------------------------------------------------

    def submit(self, request: DiskRequest) -> Event:
        """Queue a request; returns its completion event."""
        if request.done is None:
            request.done = self.sim.event(name=f"io#{request.id}")
        if self._obs_on:
            tracer = self.sim.obs.tracer
            if tracer.enabled:
                span = tracer.start("bufq", "kernel.bufq",
                                    parent=request.trace_ctx,
                                    lba=request.lba)
                if self.sim.obs.prov.enabled:
                    self._overtakes.arrive(request)
            else:
                span = None
            self._pending_obs[request.id] = (span, self.sim.now)
        self._bufq.insert(request)
        self._pump()
        return request.done

    def _pump(self) -> None:
        limit = self.drive.queue_limit
        while self._in_flight < limit:
            request = self._bufq.next()
            if request is None:
                break
            if self._obs_on:
                span, inserted = self._pending_obs.pop(
                    request.id, (None, None))
                if inserted is not None:
                    self._m_wait.observe(self.sim.now - inserted)
                if span is not None:
                    if self.sim.obs.prov.enabled:
                        self._overtakes.depart(request, span)
                    span.finish()
            self._in_flight += 1
            self.dispatched += 1
            request.done.add_callback(self._on_complete)
            self.sim.spawn(self._dispatch_later(request),
                           name="iosched.dispatch")

    def _dispatch_later(self, request: DiskRequest):
        yield self.sim.timeout(DISPATCH_OVERHEAD)
        self.drive.submit(request)

    def _on_complete(self, event: Event) -> None:
        self._in_flight -= 1
        self._pump()
