"""How fast the machine is running right now, from a fixed calibration loop.

The benchmark runs on hosts it shares with other tenants.  When another
tenant contends for the core, a batch of identical work runs up to a
third slower for seconds to minutes at a time, longer than one run, so
no statistic over one run's batches removes it.  The loop below is a
fixed miniature of the simulator's hot path, generator processes resumed
off a heap, that never changes with the simulator; timing it just before
and just after a batch measures how fast the machine ran that batch, and
host seconds scaled by it compare across the host's busy and quiet
spells.
"""

from __future__ import annotations

import heapq
import time

#: Seconds one :func:`calibration_loop` takes on the reference machine
#: (a quiet 2-vCPU Intel Xeon host, CPython 3.11.7).
REFERENCE_S = 0.032


class _Record:
    __slots__ = ("pid", "step")

    def __init__(self, pid: int, step: int):
        self.pid = pid
        self.step = step


def calibration_loop(events: int = 40_000) -> int:
    """A miniature event loop: 50 generators resumed off a heap."""
    heap, seq, totals = [], 0, {}

    def process(pid):
        step = 0
        while True:
            record = _Record(pid, step)
            totals[pid % 64] = totals.get(pid % 64, 0) + record.step
            step += 1
            yield (pid * 7 + step * 13) % 101 / 100.0

    for pid in range(50):
        heapq.heappush(heap, (0.0, seq, process(pid)))
        seq += 1
    for _ in range(events):
        now, _, generator = heapq.heappop(heap)
        heapq.heappush(heap, (now + next(generator), seq, generator))
        seq += 1
    return sum(totals.values())


def loop_seconds() -> float:
    """Host seconds one calibration loop takes now."""
    start = time.perf_counter()
    calibration_loop()
    return time.perf_counter() - start


def calibrated(fn):
    """Run ``fn()`` between two calibration loops.

    Returns ``(result, wall_s, factor)``: multiplying a host time taken
    inside ``fn`` by ``factor`` gives the seconds it would have taken on
    the reference machine.
    """
    before = loop_seconds()
    start = time.perf_counter()
    result = fn()
    wall = time.perf_counter() - start
    after = loop_seconds()
    return result, wall, 2 * REFERENCE_S / (before + after)
