"""Figure 8: stride-read throughput, default vs cursor read-ahead (§7).

A single NFS reader walks a 256 MB file in 2-, 4-, and 8-stride
patterns.  Expected shape: the cursor heuristic is at least ~50 % faster
everywhere; scsi1 gains 60–70 % across the board; ide1's default curve
*dips* at 8 strides (its drive keeps fewer concurrent prefetch streams),
making the cursor gain largest there (~140 % in the paper).
"""

from __future__ import annotations

import functools

from ..bench.runner import run_stride_once
from ..host.testbed import TestbedConfig
from ..stats import SeriesSet
from .common import sweep
from .registry import register

STRIDES = (2, 4, 8)


def stride_configs():
    return [
        ("scsi1/cursor", TestbedConfig(drive="scsi", partition=1,
                                       transport="udp",
                                       server_heuristic="cursor",
                                       nfsheur="improved")),
        ("ide1/cursor", TestbedConfig(drive="ide", partition=1,
                                      transport="udp",
                                      server_heuristic="cursor",
                                      nfsheur="improved")),
        ("scsi1/default", TestbedConfig(drive="scsi", partition=1,
                                        transport="udp",
                                        server_heuristic="default")),
        ("ide1/default", TestbedConfig(drive="ide", partition=1,
                                       transport="udp",
                                       server_heuristic="default")),
    ]


@register(
    id="fig8",
    title="Throughput for stride readers using UDP",
    paper_claim=("Cursor read-ahead is >=50% faster on stride reads; "
                 "scsi1 60-70% faster throughout; ide1 gains most at "
                 "s=8 (~140%) because its default curve dips there."))
def run(scale: float = 0.125, runs: int = 3, seed: int = 0) -> SeriesSet:
    return sweep(
        SeriesSet("Figure 8: stride readers, cursor vs default read-ahead",
                  xlabel="strides"),
        stride_configs(), STRIDES,
        functools.partial(run_stride_once, scale=scale), runs, seed)
