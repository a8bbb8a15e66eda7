"""Host CPU model: execution costs, contention, and scheduling jitter.

A :class:`Machine` owns one CPU (the testbed's Pentium IIIs are
uniprocessors).  Simulated work runs through :meth:`execute`, which
books the CPU as a FIFO server (a charge starts when the CPU is free
and nothing can interrupt it, so its finish time is arithmetic at the
booking) and charges a *dilated* cost:

* dilation models competing compute-bound processes — the paper's "four
  infinite-loop processes" (§6.1) — stealing cycles from interactive
  work.  We do not simulate the 4.4BSD scheduler quantum-by-quantum;
  I/O-bound threads get priority boosts there, so their slowdown under
  CPU load is a dilation factor, not a full quantum wait.  The factor
  per hog is a calibration constant.
* jitter models wakeup-order nondeterminism among daemons.  This is
  the mechanism behind the paper's client-side *request reordering*
  (§6): two nfsiods dequeueing back-to-back requests can reach the wire
  in either order, and the probability grows with CPU contention —
  exactly the "frequency of packet reordering increases in tandem with
  the number of active processes on the client" observation.
"""

from __future__ import annotations

import random
from typing import Optional

from ..sim import Simulator

#: CPU work dilation added by each busy-loop process.
SLOWDOWN_PER_HOG = 0.25
#: Wakeup jitter ceiling (seconds) on an idle host ...
BASE_JITTER = 0.00002
#: ... plus this much per busy-loop process.
JITTER_PER_HOG = 0.00007


class Machine:
    """A host with one CPU and a contention model.

    ``busy_processes`` is the number of infinite-loop processes (the
    paper's load), fixed for the machine's life.
    """

    def __init__(self, sim: Simulator, name: str,
                 rng: Optional[random.Random] = None,
                 busy_processes: int = 0):
        if busy_processes < 0:
            raise ValueError("cannot have negative busy processes")
        self.sim = sim
        self.name = name
        self._rng = rng or random.Random(0xCB0)
        self.busy_processes = busy_processes
        self.dilation = 1.0 + busy_processes * SLOWDOWN_PER_HOG
        self._jitter_ceiling = BASE_JITTER + busy_processes * JITTER_PER_HOG
        #: When the last booked charge finishes.
        self._busy_until = 0.0
        self.cpu_time_consumed = 0.0

    # ------------------------------------------------------------------

    def scheduling_jitter(self) -> float:
        """A fresh sample of wakeup-latency jitter."""
        return self._rng.uniform(0.0, self._jitter_ceiling)

    # ------------------------------------------------------------------

    def execute(self, seconds: float, jitter: bool = False):
        """Run ``seconds`` of CPU work (generator; FIFO on the CPU).

        With ``jitter=True``, a scheduling-jitter delay is added *before*
        the CPU is booked, modelling the wakeup race among daemons.  The
        charge then starts once every earlier booking has finished and
        runs for its dilated cost: one queue entry, at its finish time.
        The CPU time is counted when the charge completes, so it never
        runs ahead of the clock.
        """
        if seconds < 0:
            raise ValueError("cannot execute negative work")
        sim = self.sim
        if jitter:
            wait = self.scheduling_jitter()
            if wait > 0:
                yield sim.timeout(wait)
        cost = seconds * self.dilation
        finish = max(sim.now, self._busy_until) + cost
        self._busy_until = finish
        yield sim.at(finish)
        self.cpu_time_consumed += cost
        return None
