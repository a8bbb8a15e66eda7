"""On-disk (firmware) command schedulers.

When tagged command queueing is enabled the host hands the drive a batch
of outstanding commands and the *firmware* decides service order
(§5.2).  The paper observes two things about its SCSI drive's firmware:

* it reorders requests (verified by kernel instrumentation), and
* its policy is in effect *fairer* than the kernel's elevator — and for
  the concurrent-sequential-reader workload, slower (§5.3, Figure 3).

We model that firmware as shortest-positioning-time-first with an aging
term: each queued command's effective cost is its positioning time minus
a credit proportional to how long it has waited.  With ``aging_weight``
= 0 this is pure SPTF (throughput-greedy, starvation-prone); large
weights approach FIFO.  Desktop/server firmware differences, acoustic
modes, etc. (§5.2) are all, for scheduling purposes, different points on
this same knob.
"""

from __future__ import annotations

from typing import Callable, List, Protocol

from .request import DiskRequest


class FirmwareScheduler(Protocol):
    """Interface: pick the next command from a queue."""

    def select(self, queue: List[DiskRequest], now: float,
               positioning_time: Callable[[DiskRequest], float],
               ) -> DiskRequest:
        """Remove and return the next request to service."""
        ...


class FifoFirmware:
    """Service strictly in arrival order (tagged queueing 'off')."""

    name = "fifo"

    def select(self, queue: List[DiskRequest], now: float,
               positioning_time: Callable[[DiskRequest], float],
               ) -> DiskRequest:
        return queue.pop(0)


class AgedSptfFirmware:
    """Shortest positioning time first, with aging for fairness.

    ``aging_weight`` converts seconds of queue wait into seconds of
    positioning credit.  The paper's drive behaves as if this weight is
    substantial: concurrent sequential readers finish close together
    (fair) but aggregate throughput suffers because the head keeps
    migrating between streams.
    """

    name = "aged-sptf"

    def __init__(self, aging_weight: float = 0.6):
        if aging_weight < 0:
            raise ValueError("aging weight cannot be negative")
        self.aging_weight = aging_weight

    def select(self, queue: List[DiskRequest], now: float,
               positioning_time: Callable[[DiskRequest], float],
               ) -> DiskRequest:
        aging_weight = self.aging_weight
        best_index = 0
        best_score = None
        for index, request in enumerate(queue):
            score = (positioning_time(request)
                     - aging_weight * (now - request.arrival))
            if best_score is None or score < best_score:
                best_score = score
                best_index = index
        return queue.pop(best_index)
