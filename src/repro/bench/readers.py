"""Reader processes: sequential (§4.2) and stride (§7).

Each reader is a simulation process that opens its file, reads it
according to its pattern, and records its completion time — the raw
material for both the throughput figures and the fairness distributions
of Figure 3.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import List, Optional

from ..obs import NULL_SPAN, NULL_TRACER

#: Application read() size for the sequential benchmark.  The NFS client
#: splits this into 8 KiB wire reads regardless; locally it matches a
#: typical stdio buffer.
SEQUENTIAL_READ_SIZE = 64 * 1024

#: The stride benchmark reads single NFS-block-sized chunks (§7).
STRIDE_READ_SIZE = 8 * 1024


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


def _accepts_span(fn) -> bool:
    """True if ``fn`` takes a ``span`` keyword.

    Pre-tracing open/read functions (plain 0- and 3-argument
    callables) remain valid reader arguments; span-aware ones opt in
    by naming the parameter.
    """
    try:
        return "span" in inspect.signature(fn).parameters
    except (TypeError, ValueError):
        return False


def sequential_reader(sim, open_fn, read_fn, size: int,
                      result: ReaderResult,
                      read_size: int = SEQUENTIAL_READ_SIZE,
                      think_time: float = 0.0,
                      tracer=None):
    """Read a file from start to end (generator process).

    ``open_fn()`` is a generator returning a handle; ``read_fn(handle,
    offset, nbytes)`` is a generator returning bytes read.  The same
    reader body therefore drives both the local FFS and an NFS mount.
    Either function may also accept a ``span=`` keyword to receive the
    reader's root tracing span.
    """
    tracer = tracer if tracer is not None else NULL_TRACER
    span = (tracer.start(f"reader:{result.name}", "bench")
            if tracer.enabled else NULL_SPAN)
    open_takes_span = _accepts_span(open_fn)
    read_takes_span = _accepts_span(read_fn)
    result.start_time = sim.now
    handle = yield from (open_fn(span=span) if open_takes_span
                         else open_fn())
    offset = 0
    while offset < size:
        nbytes = min(read_size, size - offset)
        got = yield from (read_fn(handle, offset, nbytes, span=span)
                          if read_takes_span
                          else read_fn(handle, offset, nbytes))
        if got <= 0:
            break
        result.bytes_read += got
        offset += got
        if think_time > 0:
            yield sim.timeout(think_time)
    result.finish_time = sim.now
    span.finish(bytes=result.bytes_read)
    return result


def resilient_sequential_reader(sim, open_fn, read_fn, size: int,
                                result: ReaderResult,
                                read_size: int = SEQUENTIAL_READ_SIZE,
                                give_up_after: Optional[int] = 5,
                                tracer=None):
    """A sequential reader that survives I/O errors (generator process).

    On a soft mount a dead or badly degraded server surfaces as
    ``OSError`` (``ETIMEDOUT``) from read(); this reader counts the
    error and skips the chunk, like a bulk-transfer tool that logs and
    presses on.  ``give_up_after`` consecutive failures abort the file —
    no application retries forever on a mount that keeps timing out.
    On hard mounts read() never raises, so this behaves exactly like
    :func:`sequential_reader`.
    """
    tracer = tracer if tracer is not None else NULL_TRACER
    span = (tracer.start(f"reader:{result.name}", "bench")
            if tracer.enabled else NULL_SPAN)
    open_takes_span = _accepts_span(open_fn)
    read_takes_span = _accepts_span(read_fn)
    result.start_time = sim.now
    try:
        handle = yield from (open_fn(span=span) if open_takes_span
                             else open_fn())
    except OSError:
        result.errors += 1
        result.read_attempts += 1
        result.finish_time = sim.now
        span.finish(bytes=0, errors=result.errors)
        return result
    offset = 0
    consecutive = 0
    while offset < size:
        nbytes = min(read_size, size - offset)
        result.read_attempts += 1
        try:
            got = yield from (read_fn(handle, offset, nbytes, span=span)
                              if read_takes_span
                              else read_fn(handle, offset, nbytes))
        except OSError:
            result.errors += 1
            consecutive += 1
            if give_up_after is not None and consecutive >= give_up_after:
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
                  result: ReaderResult,
                  read_size: int = STRIDE_READ_SIZE,
                  tracer=None):
    """Read a file in a stride pattern (generator process)."""
    tracer = tracer if tracer is not None else NULL_TRACER
    span = (tracer.start(f"reader:{result.name}", "bench",
                         strides=strides)
            if tracer.enabled else NULL_SPAN)
    open_takes_span = _accepts_span(open_fn)
    read_takes_span = _accepts_span(read_fn)
    result.start_time = sim.now
    handle = yield from (open_fn(span=span) if open_takes_span
                         else open_fn())
    for offset in stride_offsets(size, strides, read_size):
        got = yield from (read_fn(handle, offset, read_size, span=span)
                          if read_takes_span
                          else read_fn(handle, offset, read_size))
        result.bytes_read += got
    result.finish_time = sim.now
    span.finish(bytes=result.bytes_read)
    return result
