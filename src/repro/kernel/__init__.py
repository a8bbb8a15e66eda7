"""Kernel-side I/O path: disk queues, dispatch, and the buffer cache."""

from .bufq import (BufQueue, ElevatorQueue, NStepCscanQueue,
                   available_policies, make_bufq)
from .buffercache import BLOCK_SIZE, BufferCache, CacheStats
from .iosched import DiskIoScheduler

__all__ = [
    "BufQueue",
    "ElevatorQueue",
    "NStepCscanQueue",
    "make_bufq",
    "available_policies",
    "DiskIoScheduler",
    "BufferCache",
    "CacheStats",
    "BLOCK_SIZE",
]
