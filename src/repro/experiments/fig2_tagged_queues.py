"""Figure 2: tagged command queues vs the kernel elevator (local SCSI).

Expected shape (§5.2): with tags enabled the single-reader case spikes
but multi-reader throughput falls away; with tags disabled the kernel
elevator keeps multi-reader throughput near the single-reader level
("levels off just above 15 MB/s in the default configuration, but
barely dips below 27 MB/s when tagged command queues are disabled").
"""

from __future__ import annotations

import functools

from ..bench.fileset import READER_COUNTS
from ..bench.runner import run_local_once
from ..host.testbed import TestbedConfig
from ..stats import SeriesSet
from .common import sweep
from .registry import Claim, register


@register(
    id="fig2",
    title="Tagged Queues and ZCAV - Local SCSI Drive",
    paper_claim=("Disabling tagged queues substantially improves "
                 "concurrent sequential read throughput on the SCSI "
                 "drive; with tags there is a single-reader spike then "
                 "a fall-off."),
    claims=[
        Claim("fig2/no-tags-wins-for-concurrent-readers",
              "no tags beats tags on scsi1 by 1.3x at 4 to 32 readers",
              lambda f: all(f["fig2"].mean("scsi1/no-tags", x)
                            > 1.3 * f["fig2"].mean("scsi1/tags", x)
                            for x in (4, 8, 16, 32))),
        Claim("fig2/tags-single-reader-spike",
              "with tags, one scsi1 reader gets 1.5x what 8 readers get",
              lambda f: f["fig2"].mean("scsi1/tags", 1)
              > 1.5 * f["fig2"].mean("scsi1/tags", 8)),
        Claim("fig2/no-tags-barely-dips",
              "without tags, 32 scsi1 readers keep 85% of 1 reader's rate",
              lambda f: f["fig2"].mean("scsi1/no-tags", 32)
              > 0.85 * f["fig2"].mean("scsi1/no-tags", 1)),
    ])
def run(scale: float = 0.125, runs: int = 3, seed: int = 0) -> SeriesSet:
    configs = [
        ("scsi1/no-tags", TestbedConfig(drive="scsi", partition=1,
                                        tagged_queueing=False)),
        ("scsi4/no-tags", TestbedConfig(drive="scsi", partition=4,
                                        tagged_queueing=False)),
        ("scsi1/tags", TestbedConfig(drive="scsi", partition=1,
                                     tagged_queueing=True)),
        ("scsi4/tags", TestbedConfig(drive="scsi", partition=4,
                                     tagged_queueing=True)),
    ]
    return sweep(
        SeriesSet("Figure 2: Tagged queues and ZCAV (local SCSI)",
                  xlabel="readers"),
        configs, READER_COUNTS,
        functools.partial(run_local_once, scale=scale), runs, seed)
