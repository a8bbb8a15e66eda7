"""The multi-run benchmark driver (§4.3).

A *run* builds a fresh testbed (fresh simulator, fresh caches — the
strongest form of the paper's cache-defeat protocol), creates the file
set, starts all readers concurrently, and records each reader's
completion time.  "The number of MB read divided by the time required
for the last reader to finish gives the effective throughput."

Each benchmark point repeats the run with distinct seeds and summarises
with mean and standard deviation, as the paper does ("each point
represents the average of at least ten separate runs").
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from ..host.testbed import (NfsTestbed, TestbedConfig,
                            build_local_testbed, build_nfs_testbed)
from ..sim.rand import run_seed
from ..stats import Summary, summarize
from .fileset import FileSpec, files_for_readers
from .readers import (ReaderResult, resilient_sequential_reader,
                      sequential_reader, stride_reader)

MB = 1024 * 1024


@dataclass
class RunResult:
    """One run: per-reader results plus the §4.2 throughput formula."""

    readers: List[ReaderResult]
    total_bytes: int
    #: Metrics-registry snapshot for this run (``None`` unless the
    #: testbed ran with metrics enabled).
    metrics: Optional[dict] = None
    #: Captured vnode-boundary trace (``None`` unless the testbed ran
    #: with ``capture_trace=True``); a :class:`repro.replay.TraceFile`.
    trace: Optional[object] = None

    @property
    def elapsed(self) -> float:
        return max(reader.finish_time for reader in self.readers)

    @property
    def throughput_mb_s(self) -> float:
        return self.total_bytes / MB / self.elapsed

    def completion_times(self) -> List[float]:
        """Sorted per-reader completion times (Figure 3's raw data)."""
        return sorted(reader.finish_time for reader in self.readers)


@dataclass
class FaultRunResult(RunResult):
    """A faulted run: goodput plus the recovery-machinery counters.

    ``total_bytes`` counts only successfully delivered application
    bytes, so :attr:`throughput_mb_s` *is* goodput; the alias makes the
    intent explicit at call sites.
    """

    retransmits: int = 0
    tcp_segment_retransmits: int = 0
    rpc_timeouts: int = 0
    dupreq_hits: int = 0
    dupreq_evictions: int = 0
    duplicate_executions: int = 0
    verifier_resends: int = 0
    commit_retries: int = 0
    reader_errors: int = 0
    read_attempts: int = 0
    server_crashes: int = 0
    server_dropped: int = 0

    @property
    def goodput_mb_s(self) -> float:
        return self.throughput_mb_s

    @property
    def error_rate(self) -> float:
        """Fraction of application read() calls that returned an error."""
        if self.read_attempts == 0:
            return 0.0
        return self.reader_errors / self.read_attempts


def _local_open(fs, inode, span=None):
    """:meth:`FileSystem.open` as the generator the readers expect."""
    return fs.open(inode)
    yield  # pragma: no cover - makes _local_open a generator


def _run_readers(testbed, reader, specs: Sequence[FileSpec], io
                 ) -> RunResult:
    """Run one ``reader`` per file to completion on ``testbed``.

    ``io[i]`` is the ``(open_fn, read_fn)`` pair of ``specs[i]``.
    """
    results = [ReaderResult(spec.name) for spec in specs]
    processes = [
        testbed.sim.spawn(
            reader(testbed.sim, open_fn, read_fn, size=spec.size,
                   result=result, tracer=testbed.obs.tracer),
            name=f"reader:{spec.name}")
        for spec, result, (open_fn, read_fn) in zip(specs, results, io)]
    metrics = testbed.run(processes)
    return RunResult(readers=results,
                     total_bytes=sum(r.bytes_read for r in results),
                     metrics=metrics)


def _run_nfs_readers(config: TestbedConfig, reader,
                     specs: Sequence[FileSpec]
                     ) -> Tuple[NfsTestbed, RunResult]:
    """Export ``specs`` on a fresh NFS testbed and read each file with
    its own ``reader``, round-robin over the client mounts."""
    testbed = build_nfs_testbed(config)
    for spec in specs:
        testbed.server.export_file(spec.name, spec.size)
    mounts = [testbed.mount_for(index) for index in range(len(specs))]
    result = _run_readers(
        testbed, reader, specs,
        [(functools.partial(mount.open, spec.name), mount.read)
         for spec, mount in zip(specs, mounts)])
    result.trace = testbed.capture_trace_file()
    return testbed, result


# ---------------------------------------------------------------------------
# Local (Figures 1-3)
# ---------------------------------------------------------------------------

def run_local_once(config: TestbedConfig, nreaders: int,
                   scale: float = 1.0) -> RunResult:
    """One local-FS run with ``nreaders`` concurrent sequential readers."""
    testbed = build_local_testbed(config)
    specs = files_for_readers(nreaders, scale)
    fs = testbed.fs
    inodes = [fs.create_file(spec.name, spec.size) for spec in specs]
    return _run_readers(
        testbed, sequential_reader, specs,
        [(functools.partial(_local_open, fs, inode), fs.read)
         for inode in inodes])


# ---------------------------------------------------------------------------
# NFS (Figures 4-7)
# ---------------------------------------------------------------------------

def run_nfs_once(config: TestbedConfig, nreaders: int,
                 scale: float = 1.0) -> RunResult:
    """One NFS run with ``nreaders`` concurrent sequential readers.

    Readers are distributed round-robin over the testbed's client
    machines (one, unless ``config.num_clients`` says otherwise).
    """
    _testbed, result = _run_nfs_readers(
        config, sequential_reader, files_for_readers(nreaders, scale))
    return result


# ---------------------------------------------------------------------------
# NFS under fault injection (extension X4)
# ---------------------------------------------------------------------------

def run_faulted_once(config: TestbedConfig, nreaders: int,
                     scale: float = 1.0) -> FaultRunResult:
    """One NFS run with error-tolerant readers and fault accounting.

    Works for clean configs too, but the point is ``config.faults``:
    readers use :func:`resilient_sequential_reader` so a soft mount's
    ETIMEDOUT is counted instead of aborting the run, and the result
    carries the retransmission / dupreq / crash counters needed to
    judge graceful degradation.
    """
    testbed, base = _run_nfs_readers(
        config, resilient_sequential_reader,
        files_for_readers(nreaders, scale))
    server_stats = testbed.server.stats
    return FaultRunResult(
        readers=base.readers,
        total_bytes=base.total_bytes,
        metrics=base.metrics,
        retransmits=sum(c.retransmitted for c in testbed.rpc_clients),
        tcp_segment_retransmits=sum(
            getattr(ep, "retransmits", 0)
            for ep in testbed.transport_endpoints),
        rpc_timeouts=sum(c.timeouts for c in testbed.rpc_clients),
        dupreq_hits=sum(s.dupreq_hits for s in testbed.rpc_servers),
        dupreq_evictions=sum(s.dupreq_evictions
                             for s in testbed.rpc_servers),
        duplicate_executions=sum(s.duplicate_executions
                                 for s in testbed.rpc_servers),
        verifier_resends=sum(m.stats.verifier_resends
                             for m in testbed.mounts),
        commit_retries=sum(m.stats.commit_retries
                           for m in testbed.mounts),
        reader_errors=sum(r.errors for r in base.readers),
        read_attempts=sum(r.read_attempts for r in base.readers),
        server_crashes=server_stats.crashes,
        server_dropped=server_stats.dropped_requests)


# ---------------------------------------------------------------------------
# Stride over NFS (Figure 8 / Table 1)
# ---------------------------------------------------------------------------

def run_stride_once(config: TestbedConfig, strides: int,
                    scale: float = 1.0,
                    file_bytes: int = 256 * MB) -> RunResult:
    """One single-reader stride run over NFS (§7's benchmark)."""
    _testbed, result = _run_nfs_readers(
        config, functools.partial(stride_reader, strides=strides),
        [FileSpec(name="stride-file", size=int(file_bytes * scale))])
    return result


# ---------------------------------------------------------------------------
# Repetition
# ---------------------------------------------------------------------------

def collect_metric(run_once: Callable[[TestbedConfig], object],
                   config: TestbedConfig, runs: int,
                   metric: str = "throughput_mb_s") -> List[float]:
    """Per-seed values of ``metric`` (an attribute of ``run_once``'s
    result) for ``runs`` repeats, in seed order.

    Repeat ``index`` runs with seed ``run_seed(config.seed, index)``,
    as every campaign cell does (:mod:`repro.campaign`).
    """
    if runs < 1:
        raise ValueError("need at least one run")
    seeds = [config.with_seed(run_seed(config.seed, index))
             for index in range(runs)]
    return [getattr(run_once(seeded), metric) for seeded in seeds]


def repeat(run_once: Callable[[TestbedConfig], RunResult],
           config: TestbedConfig, runs: int = 10) -> Summary:
    """Repeat a run with per-run seeds; summarise throughput (MB/s)."""
    return summarize(collect_metric(run_once, config, runs))
