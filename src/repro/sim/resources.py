"""Shared-resource primitives built on the event kernel.

:class:`Resource`
    A counted semaphore with FIFO queueing (e.g. an nfsd slot, a DMA
    channel).

:class:`Store`
    An unbounded FIFO of items with blocking ``get`` (e.g. the nfsiod
    request queue).

:class:`RateLimiter`
    Serialises byte transfers through a fixed-bandwidth pipe (e.g. the
    PCI/DMA ceiling, an Ethernet link).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque

from .events import Event


class Resource:
    """A counted resource with FIFO granting.

    Usage inside a process::

        yield resource.acquire()
        try:
            ... hold the resource ...
        finally:
            resource.release()
    """

    def __init__(self, sim, capacity: int = 1):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        self.in_use = 0
        self._waiters: Deque[Event] = deque()

    def acquire(self) -> Event:
        """Return an event that fires once a slot is held."""
        event = Event(self.sim, name="acquire")
        if self.in_use < self.capacity:
            self.in_use += 1
            event.succeed()
        else:
            self._waiters.append(event)
        return event

    def try_acquire(self) -> bool:
        """Take a slot immediately if one is free; never queues."""
        if self.in_use < self.capacity:
            self.in_use += 1
            return True
        return False

    def release(self) -> None:
        if self.in_use <= 0:
            raise RuntimeError("release() without a matching acquire()")
        if self._waiters:
            # Hand the slot directly to the next waiter: in_use unchanged.
            self._waiters.popleft().succeed()
        else:
            self.in_use -= 1

    @property
    def queued(self) -> int:
        return len(self._waiters)


class Store:
    """An unbounded FIFO with blocking get.

    ``put`` never blocks; ``get`` returns an event whose value is the
    item.  Waiters are served FIFO.
    """

    def __init__(self, sim):
        self.sim = sim
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()

    def put(self, item: Any) -> None:
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        event = Event(self.sim, name="store.get")
        if self._items:
            event.succeed(self._items.popleft())
        else:
            self._getters.append(event)
        return event

    def __len__(self) -> int:
        return len(self._items)


class RateLimiter:
    """A fixed-bandwidth pipe shared by many transfers.

    ``transfer(nbytes)`` returns an event that fires when the transfer
    completes; ``reserve(nbytes)`` books the same transfer and only
    returns its finish time, for callers that schedule the completion
    themselves.  Transfers are serialised FIFO, which models a bus or a
    half-duplex link: the pipe's finish time advances by
    ``nbytes / rate`` per transfer and never runs ahead of ``sim.now``.
    """

    def __init__(self, sim, rate_bytes_per_sec: float):
        if rate_bytes_per_sec <= 0:
            raise ValueError("rate must be positive")
        self.sim = sim
        self.rate = rate_bytes_per_sec
        self._busy_until = 0.0
        self.bytes_moved = 0

    def reserve(self, nbytes: int) -> float:
        """Book ``nbytes`` through the pipe; return the absolute time the
        transfer finishes.  Nothing is scheduled."""
        if nbytes < 0:
            raise ValueError("negative transfer size")
        start = max(self.sim.now, self._busy_until)
        finish = start + nbytes / self.rate
        self._busy_until = finish
        self.bytes_moved += nbytes
        return finish

    def transfer(self, nbytes: int) -> Event:
        finish = self.reserve(nbytes)
        return self.sim.timeout(finish - self.sim.now)
