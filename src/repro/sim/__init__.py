"""A small deterministic discrete-event simulation kernel.

The kernel provides simulated time, one-shot events, generator-based
processes, and shared-resource primitives.  All higher layers of the
reproduction (disks, schedulers, NFS) are built on these pieces.  One
binary-heap scheduler runs everything (see :mod:`repro.sim.core`).
"""

from .core import Simulator
from .errors import ProcessError, SchedulingError, SimulationError
from .events import AllOf, Event, EventQueue, Timeout
from .process import Process
from .rand import RandomStreams, derive_seed
from .resources import RateLimiter, Resource, Store

__all__ = [
    "Simulator",
    "Event",
    "EventQueue",
    "Timeout",
    "AllOf",
    "Process",
    "Resource",
    "Store",
    "RateLimiter",
    "RandomStreams",
    "derive_seed",
    "SimulationError",
    "SchedulingError",
    "ProcessError",
]
