"""Kernel disk-request queues: the FreeBSD elevator and N-step CSCAN.

``bufqdisksort`` (the FreeBSD 4.x default, §5.3) is a *cyclical* scan:
requests are kept sorted by block number in two lists — the current
sweep (positions at or beyond the head) and the next sweep (positions
behind it).  Crucially, a new request that lands ahead of the head joins
the sweep *in progress*.  That is the source of the unfairness the paper
measures in Figure 3: a process reading sequentially right at the head
keeps inserting its next block in front of everyone else and monopolises
the disk until its file ends.

N-step CSCAN (the paper's patch) freezes the current sweep: requests
arriving during a sweep wait for the next one.  Latency becomes
proportional to queue length at sweep start — fair, and in the paper's
measurements roughly half the aggregate throughput.

Both queues order by block number only.  They never look at the owning
process or file: fairness differences are purely emergent.
"""

from __future__ import annotations

import bisect
from collections import deque
from typing import Deque, List, Optional, Protocol

from ..disk.request import DiskRequest


class BufQueue(Protocol):
    """Interface for a kernel disk-request queue."""

    name: str

    def insert(self, request: DiskRequest) -> None: ...

    def next(self) -> Optional[DiskRequest]: ...

    def __len__(self) -> int: ...


class _SortedList:
    """A list of requests kept sorted by (lba, id)."""

    __slots__ = ("_keys", "_items")

    def __init__(self):
        self._keys: List[tuple] = []
        self._items: List[DiskRequest] = []

    def add(self, request: DiskRequest) -> None:
        key = (request.lba, request.id)
        index = bisect.bisect_left(self._keys, key)
        self._keys.insert(index, key)
        self._items.insert(index, request)

    def pop_first(self) -> DiskRequest:
        self._keys.pop(0)
        return self._items.pop(0)

    def __len__(self) -> int:
        return len(self._items)


class ElevatorQueue:
    """FreeBSD's ``bufqdisksort``: a one-way (cyclic) elevator.

    The head position is the block number of the most recently
    dispatched request; requests at or beyond it join the current sweep,
    others wait for the next sweep.  When the current sweep drains, the
    next sweep becomes current (head wraps to the lowest block).
    """

    name = "elevator"

    def __init__(self):
        self._current = _SortedList()
        self._next = _SortedList()
        self._head_pos = 0

    def insert(self, request: DiskRequest) -> None:
        if request.lba >= self._head_pos:
            self._current.add(request)
        else:
            self._next.add(request)

    def next(self) -> Optional[DiskRequest]:
        if not len(self._current):
            if not len(self._next):
                return None
            self._current, self._next = self._next, self._current
        request = self._current.pop_first()
        self._head_pos = request.lba
        return request

    def __len__(self) -> int:
        return len(self._current) + len(self._next)


class NStepCscanQueue:
    """N-step CSCAN: the elevator with a frozen sweep (the paper's patch).

    Requests arriving while a sweep is being serviced are *not* added to
    it; they accumulate for the following sweep.  Expected service
    latency is bounded by the queue length at sweep start.
    """

    name = "n-cscan"

    def __init__(self):
        self._sweep: Deque[DiskRequest] = deque()
        self._accumulating = _SortedList()

    def insert(self, request: DiskRequest) -> None:
        self._accumulating.add(request)

    def next(self) -> Optional[DiskRequest]:
        if not self._sweep:
            if not len(self._accumulating):
                return None
            drained = []
            while len(self._accumulating):
                drained.append(self._accumulating.pop_first())
            self._sweep.extend(drained)
        return self._sweep.popleft()

    def __len__(self) -> int:
        return len(self._sweep) + len(self._accumulating)


_POLICIES = {
    "elevator": ElevatorQueue,
    "n-cscan": NStepCscanQueue,
}


def make_bufq(policy: str) -> BufQueue:
    """Instantiate a queue by policy name (``TestbedConfig.bufq_policy``)."""
    try:
        return _POLICIES[policy]()
    except KeyError:
        raise ValueError(
            f"unknown disk scheduling policy {policy!r}; "
            f"choose from {sorted(_POLICIES)}") from None


def available_policies() -> List[str]:
    return sorted(_POLICIES)
