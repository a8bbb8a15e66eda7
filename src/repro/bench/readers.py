"""Reader processes: sequential (§4.2) and stride (§7).

Each reader is a simulation process that opens its file, reads it
according to its pattern, and records its completion time — the raw
material for both the throughput figures and the fairness distributions
of Figure 3.

Every reader takes the same two functions: ``open_fn(span=)`` is a
generator returning a handle, and ``read_fn(handle, offset, nbytes,
span=)`` is a generator returning the bytes read.  Both receive the
reader's root tracing span.  An NFS run passes
``functools.partial(mount.open, name)`` and ``mount.read``, so the same
reader body drives both the local FFS and an NFS mount.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..obs import NULL_SPAN, NULL_TRACER

#: Application read() size for the sequential benchmark.  The NFS client
#: splits this into 8 KiB wire reads regardless; locally it matches a
#: typical stdio buffer.
SEQUENTIAL_READ_SIZE = 64 * 1024

#: The stride benchmark reads single NFS-block-sized chunks (§7).
STRIDE_READ_SIZE = 8 * 1024

#: Consecutive failed read() calls after which the resilient reader
#: abandons its file — no application retries forever on a mount that
#: keeps timing out.
GIVE_UP_AFTER = 5


@dataclass
class ReaderResult:
    name: str
    bytes_read: int = 0
    start_time: float = 0.0
    finish_time: float = 0.0
    #: read() calls issued (tracked by the resilient reader).
    read_attempts: int = 0
    #: read() calls that returned an error (soft-mount ETIMEDOUT).
    errors: int = 0

    @property
    def elapsed(self) -> float:
        return self.finish_time - self.start_time


def _root_span(tracer, result: ReaderResult, **args):
    """The reader's root span (the null span when tracing is off)."""
    tracer = tracer if tracer is not None else NULL_TRACER
    return (tracer.start(f"reader:{result.name}", "bench", **args)
            if tracer.enabled else NULL_SPAN)


def sequential_reader(sim, open_fn, read_fn, size: int,
                      result: ReaderResult, tracer=None):
    """Read a file from start to end (generator process)."""
    span = _root_span(tracer, result)
    result.start_time = sim.now
    handle = yield from open_fn(span=span)
    offset = 0
    while offset < size:
        nbytes = min(SEQUENTIAL_READ_SIZE, size - offset)
        got = yield from read_fn(handle, offset, nbytes, span=span)
        if got <= 0:
            break
        result.bytes_read += got
        offset += got
    result.finish_time = sim.now
    span.finish(bytes=result.bytes_read)
    return result


def resilient_sequential_reader(sim, open_fn, read_fn, size: int,
                                result: ReaderResult, tracer=None):
    """A sequential reader that survives I/O errors (generator process).

    On a soft mount a dead or badly degraded server surfaces as
    ``OSError`` (``ETIMEDOUT``) from read(); this reader counts the
    error and skips the chunk, like a bulk-transfer tool that logs and
    presses on.  :data:`GIVE_UP_AFTER` consecutive failures abort the
    file.  On hard mounts read() never raises, so this behaves exactly
    like :func:`sequential_reader`.
    """
    span = _root_span(tracer, result)
    result.start_time = sim.now
    try:
        handle = yield from open_fn(span=span)
    except OSError:
        result.errors += 1
        result.read_attempts += 1
        result.finish_time = sim.now
        span.finish(bytes=0, errors=result.errors)
        return result
    offset = 0
    consecutive = 0
    while offset < size:
        nbytes = min(SEQUENTIAL_READ_SIZE, size - offset)
        result.read_attempts += 1
        try:
            got = yield from read_fn(handle, offset, nbytes, span=span)
        except OSError:
            result.errors += 1
            consecutive += 1
            if consecutive >= GIVE_UP_AFTER:
                break
            offset += nbytes
            continue
        consecutive = 0
        if got <= 0:
            break
        result.bytes_read += got
        offset += got
    result.finish_time = sim.now
    span.finish(bytes=result.bytes_read, errors=result.errors)
    return result


def stride_offsets(size: int, strides: int,
                   read_size: int = STRIDE_READ_SIZE) -> List[int]:
    """The §7 access pattern: ``0, x, 1, x+1, ...`` generalised.

    The file is split into ``strides`` equal arms; reads rotate through
    the arms, advancing each by one block per round — the composition of
    ``strides`` perfectly sequential sub-streams.
    """
    if strides < 1:
        raise ValueError("need at least one stride arm")
    blocks = size // read_size
    arm_blocks = blocks // strides
    offsets = []
    for round_index in range(arm_blocks):
        for arm in range(strides):
            offsets.append((arm * arm_blocks + round_index) * read_size)
    return offsets


def stride_reader(sim, open_fn, read_fn, size: int, strides: int,
                  result: ReaderResult, tracer=None):
    """Read a file in a stride pattern (generator process)."""
    span = _root_span(tracer, result, strides=strides)
    result.start_time = sim.now
    handle = yield from open_fn(span=span)
    for offset in stride_offsets(size, strides):
        got = yield from read_fn(handle, offset, STRIDE_READ_SIZE,
                                 span=span)
        result.bytes_read += got
    result.finish_time = sim.now
    span.finish(bytes=result.bytes_read)
    return result
