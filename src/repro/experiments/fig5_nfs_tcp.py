"""Figure 5: NFS over TCP, with and without tagged queues.

Expected shape (§5.4): TCP starts below UDP at low concurrency but its
curve is much flatter as readers increase — "the throughput of NFS over
TCP roughly parallels the throughput of the local file system, although
it is always significantly slower".  The single-reader ide anomaly the
paper declines to explain is *not* modelled; see EXPERIMENTS.md.
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
    id="fig5",
    title="The speed of NFS over TCP",
    paper_claim=("TCP throughput is relatively constant as concurrency "
                 "rises; UDP's low-concurrency advantage attenuates and "
                 "can invert at 16-32 readers."))
def run(scale: float = 0.125, runs: int = 3, seed: int = 0) -> SeriesSet:
    configs = [
        ("ide1", TestbedConfig(drive="ide", partition=1,
                               transport="tcp")),
        ("ide4", TestbedConfig(drive="ide", partition=4,
                               transport="tcp")),
        ("scsi1", TestbedConfig(drive="scsi", partition=1,
                                transport="tcp")),
        ("scsi4", TestbedConfig(drive="scsi", partition=4,
                                transport="tcp")),
        ("scsi1/no-tags", TestbedConfig(drive="scsi", partition=1,
                                        transport="tcp",
                                        tagged_queueing=False)),
    ]
    return sweep(SeriesSet("Figure 5: NFS over TCP", xlabel="readers"),
                 configs, READER_COUNTS,
                 functools.partial(run_nfs_once, scale=scale), runs, seed)
