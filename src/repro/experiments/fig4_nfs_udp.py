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
from .registry import Claim, register


@register(
    id="fig4",
    title="The speed of NFS over UDP",
    paper_claim=("UDP throughput falls quickly with concurrency; ZCAV "
                 "still visible; no-tags improves scsi1 at high "
                 "concurrency."),
    claims=[
        Claim("fig4/throughput-falls-with-concurrency",
              "32 ide1 readers get under 60% of one reader's throughput",
              lambda f: f["fig4"].mean("ide1", 32)
              < 0.6 * f["fig4"].mean("ide1", 1)),
        # At one reader NFS is protocol-bound, so the ZCAV gap shows up
        # once the disk becomes the bottleneck (many readers).
        Claim("fig4/zcav-still-visible",
              "ide1 beats ide4 summed over 16 and 32 readers",
              lambda f: f["fig4"].mean("ide1", 16) + f["fig4"].mean("ide1", 32)
              > f["fig4"].mean("ide4", 16) + f["fig4"].mean("ide4", 32)),
        Claim("fig4/nfs-about-half-of-local",
              "one ide1 reader over NFS gets 30-85% of fig1's local one",
              lambda f: 0.3 * f["fig1"].mean("ide1", 1)
              < f["fig4"].mean("ide1", 1)
              < 0.85 * f["fig1"].mean("ide1", 1)),
    ])
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
