"""Links and the switch: serialization, propagation, store-and-forward.

The testbed's data path is NIC → copper gigabit switch → NIC.  We model
each *direction* of each host's attachment as a serialising pipe
(:class:`repro.sim.resources.RateLimiter`) plus a fixed latency for
propagation, switch store-and-forward, and interrupt handling.  The
server's pipe can additionally be capped by the host's PCI/DMA ceiling —
the paper measured 54 MB/s DMA against 49 MB/s achieved TCP throughput
(§4.1), i.e. the bus, not the wire, was the binding constraint.

A link is a FIFO server, so a frame's delivery time is exact arithmetic
at send time: book the pipes, add the latency, and schedule the delivery
event once.  Nothing observable happens between serialization and
delivery, so no per-frame process is needed.
"""

from __future__ import annotations

from typing import Optional

from ..sim import Event, RateLimiter, Simulator
from ..sim.events import TRIGGERED

GIGABIT = 125_000_000          # 1 Gb/s in bytes/s
FAST_ETHERNET = 12_500_000     # 100 Mb/s
#: Measured DMA ceiling of the server's PCI bus (§4.1).
SERVER_PCI_DMA = 54 * 1024 * 1024


class Link:
    """One direction of a host's network attachment.

    ``send(wire_bytes)`` returns an event that fires when the last byte
    has arrived at the far end.  Transfers serialise at ``rate`` (the
    NIC) and optionally also pass through a shared ``bus`` limiter (the
    PCI ceiling shared with everything else in the host).
    """

    def __init__(self, sim: Simulator, rate: float = GIGABIT,
                 latency: float = 0.00003,
                 bus: Optional[RateLimiter] = None,
                 name: str = "link"):
        if latency < 0:
            raise ValueError("latency cannot be negative")
        self.sim = sim
        self.latency = latency
        self.name = name
        self._nic = RateLimiter(sim, rate)
        self._bus = bus
        self._delivery_name = f"{name}.delivery"
        self.messages_sent = 0
        self.bytes_sent = 0

    def send(self, wire_bytes: int) -> Event:
        """Returns an event that fires at delivery time."""
        self.messages_sent += 1
        self.bytes_sent += wire_bytes
        nic = self._nic
        if self._bus is not None:
            bus_finish = self._bus.reserve(wire_bytes)
            # The NIC cannot run ahead of the bus: serialize on whichever
            # is more congested by aligning the NIC's clock to the bus's.
            nic._busy_until = max(nic._busy_until,
                                  bus_finish - wire_bytes / nic.rate)
        finish = nic.reserve(wire_bytes)
        sim = self.sim
        now = sim.now
        done = Event(sim, self._delivery_name)
        done.state = TRIGGERED
        # Grouped as a serialization wait, then a latency wait: the
        # pinned golden digests depend on this float rounding.
        sim._push((now + (finish - now)) + self.latency, done)
        return done
