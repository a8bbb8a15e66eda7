"""repro — a simulation-based reproduction of
"NFS Tricks and Benchmarking Traps" (Ellard & Seltzer, USENIX 2003).

The package implements the paper's two NFS server modifications — the
SlowDown sequentiality heuristic and cursor-based stride read-ahead,
plus the enlarged nfsheur table — together with a discrete-event model
of the entire testbed they were measured on: ZCAV disks with tagged
command queues, the FreeBSD elevator and N-CSCAN disk schedulers, an
FFS-like file system with cluster read-ahead, an NFS v3 client/server
pair, and UDP/TCP transports on a gigabit LAN.

Quick start::

    from repro import TestbedConfig, run_nfs_once

    config = TestbedConfig(drive="ide", partition=1, transport="udp",
                           server_heuristic="slowdown",
                           nfsheur="improved")
    result = run_nfs_once(config, nreaders=8, scale=0.125)
    print(f"{result.throughput_mb_s:.1f} MB/s")

Every figure and table of the paper has a runner in
:mod:`repro.experiments`; ``python -m repro fig7`` regenerates one from
the command line.
"""

from .bench import (ReaderResult, RunResult, run_local_once,
                    run_nfs_once, run_stride_once)
from .experiments import all_experiments, get as get_experiment
from .host import (LocalTestbed, NfsTestbed, TestbedConfig,
                   build_local_testbed, build_nfs_testbed)
from .readahead import (AlwaysReadAheadHeuristic, CursorHeuristic,
                        DefaultHeuristic, ReadState, SlowDownHeuristic,
                        make_heuristic)
from .stats import Series, SeriesSet, Summary, summarize

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "TestbedConfig",
    "LocalTestbed",
    "NfsTestbed",
    "build_local_testbed",
    "build_nfs_testbed",
    "run_local_once",
    "run_nfs_once",
    "run_stride_once",
    "RunResult",
    "ReaderResult",
    "DefaultHeuristic",
    "SlowDownHeuristic",
    "AlwaysReadAheadHeuristic",
    "CursorHeuristic",
    "ReadState",
    "make_heuristic",
    "Summary",
    "summarize",
    "Series",
    "SeriesSet",
    "get_experiment",
    "all_experiments",
]
