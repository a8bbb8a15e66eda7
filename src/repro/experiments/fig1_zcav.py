"""Figure 1: the ZCAV effect on local drives.

The same concurrent-sequential-reader benchmark on the outermost
(``ide1``, ``scsi1``) and innermost (``ide4``, ``scsi4``) partitions of
both drives.  Expected shape: outer beats inner on both drives by
roughly the outer:inner media-rate ratio; the IDE contrast is clean,
while the SCSI drive's tagged command queue (enabled by default, as the
stock kernel does) muddies its curves — the paper's point that one trap
can obscure another.
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
    id="fig1",
    title="The ZCAV Effect on Local Drives",
    paper_claim=("Transfer rates for scsi1 and ide1 (outer cylinders) "
                 "are higher than scsi4 and ide4 (inner); the effect "
                 "dwarfs small file system changes."),
    claims=[
        # IDE (no tagged queues) gives the clean contrast point by
        # point; on SCSI the tagged queue adds noise that can invert
        # single points (the paper's own observation), so the SCSI
        # curves are compared summed.
        Claim("fig1/outer-beats-inner",
              "ide1 beats ide4 at each reader count; scsi1 beats scsi4 summed",
              lambda f: all(f["fig1"].mean("ide1", x)
                            > f["fig1"].mean("ide4", x)
                            for x in READER_COUNTS)
              and sum(f["fig1"].get("scsi1").means)
              > sum(f["fig1"].get("scsi4").means)),
        Claim("fig1/ide-gradient-near-media-ratio",
              "one ide1 reader gets 1.2-1.7x what one ide4 reader gets",
              lambda f: 1.2 <= f["fig1"].mean("ide1", 1)
              / f["fig1"].mean("ide4", 1) <= 1.7),
    ])
def run(scale: float = 0.125, runs: int = 3, seed: int = 0) -> SeriesSet:
    configs = [
        ("ide1", TestbedConfig(drive="ide", partition=1)),
        ("ide4", TestbedConfig(drive="ide", partition=4)),
        ("scsi1", TestbedConfig(drive="scsi", partition=1)),
        ("scsi4", TestbedConfig(drive="scsi", partition=4)),
    ]
    return sweep(
        SeriesSet("Figure 1: The ZCAV effect (local reads)",
                  xlabel="readers"),
        configs, READER_COUNTS,
        functools.partial(run_local_once, scale=scale), runs, seed)
