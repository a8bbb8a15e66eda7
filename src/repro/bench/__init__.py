"""Benchmark harness: file sets, readers, and the multi-run driver."""

from .fileset import (FileSpec, ITERATION_BYTES, READER_COUNTS,
                      files_for_readers, full_fileset)
from .readers import (ReaderResult, SEQUENTIAL_READ_SIZE,
                      STRIDE_READ_SIZE, resilient_sequential_reader,
                      sequential_reader, stride_offsets, stride_reader)
from .runner import (FaultRunResult, RunResult, run_faulted_once,
                     run_local_once, run_nfs_once, run_stride_once)

__all__ = [
    "FileSpec",
    "files_for_readers",
    "full_fileset",
    "READER_COUNTS",
    "ITERATION_BYTES",
    "ReaderResult",
    "resilient_sequential_reader",
    "sequential_reader",
    "stride_reader",
    "stride_offsets",
    "SEQUENTIAL_READ_SIZE",
    "STRIDE_READ_SIZE",
    "RunResult",
    "FaultRunResult",
    "run_local_once",
    "run_nfs_once",
    "run_faulted_once",
    "run_stride_once",
]
