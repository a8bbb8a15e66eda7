"""Figure 4: NFS over UDP, with and without tagged queues.

Expected shape (§5.4): roughly half the local file system's throughput;
performance drops quickly as concurrency rises; the ZCAV gap between
partition 1 and partition 4 remains visible; disabling tagged queues
helps scsi1 relative to ide1 at higher reader counts.
"""

from __future__ import annotations

import functools

from ..bench.fileset import READER_COUNTS
from ..bench.runner import run_nfs_once
from ..host.testbed import TestbedConfig
from ..stats import SeriesSet
from .common import sweep
from .registry import register


@register(
    id="fig4",
    title="The speed of NFS over UDP",
    paper_claim=("UDP throughput falls quickly with concurrency; ZCAV "
                 "still visible; no-tags improves scsi1 at high "
                 "concurrency."))
def run(scale: float = 0.125, runs: int = 3, seed: int = 0) -> SeriesSet:
    configs = [
        ("ide1", TestbedConfig(drive="ide", partition=1,
                               transport="udp")),
        ("ide4", TestbedConfig(drive="ide", partition=4,
                               transport="udp")),
        ("scsi1", TestbedConfig(drive="scsi", partition=1,
                                transport="udp")),
        ("scsi4", TestbedConfig(drive="scsi", partition=4,
                                transport="udp")),
        ("scsi1/no-tags", TestbedConfig(drive="scsi", partition=1,
                                        transport="udp",
                                        tagged_queueing=False)),
    ]
    return sweep(SeriesSet("Figure 4: NFS over UDP", xlabel="readers"),
                 configs, READER_COUNTS,
                 functools.partial(run_nfs_once, scale=scale), runs, seed)
