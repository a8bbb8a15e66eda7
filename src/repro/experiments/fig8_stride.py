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
from .registry import Claim, register

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


def stride_claims(experiment_id: str):
    """Figure 8's claims, on ``experiment_id``'s figure of the
    :func:`stride_configs` cells (fig8 or table1)."""
    def mean(f, label, strides):
        return f[experiment_id].mean(label, strides)

    def gain(f, strides):
        return mean(f, "ide1/cursor", strides) / mean(f, "ide1/default",
                                                      strides)

    return [
        Claim(f"{experiment_id}/cursor-beats-default-in-every-cell",
              "cursor beats default read-ahead by 1.15x in all six cells",
              lambda f: all(mean(f, f"{fs}/cursor", strides)
                            > 1.15 * mean(f, f"{fs}/default", strides)
                            for fs in ("ide1", "scsi1")
                            for strides in STRIDES)),
        Claim(f"{experiment_id}/ide-default-dips-at-eight-strides",
              "ide1 default at 8 strides is under 80% of its 2-stride rate",
              lambda f: mean(f, "ide1/default", 8)
              < 0.8 * mean(f, "ide1/default", 2)),
        Claim(f"{experiment_id}/scsi-default-stays-flat",
              "scsi1 default at 8 strides keeps 75% of its 2-stride rate",
              lambda f: mean(f, "scsi1/default", 8)
              > 0.75 * mean(f, "scsi1/default", 2)),
        Claim(f"{experiment_id}/ide-gain-largest-at-eight-strides",
              "ide1's cursor-over-default gain is largest at 8 strides",
              lambda f: all(gain(f, 8) >= gain(f, strides)
                            for strides in STRIDES)),
    ]


@register(
    id="fig8",
    title="Throughput for stride readers using UDP",
    paper_claim=("Cursor read-ahead is >=50% faster on stride reads; "
                 "scsi1 60-70% faster throughout; ide1 gains most at "
                 "s=8 (~140%) because its default curve dips there."),
    claims=stride_claims("fig8"))
def run(scale: float = 0.125, runs: int = 3, seed: int = 0) -> SeriesSet:
    return sweep(
        SeriesSet("Figure 8: stride readers, cursor vs default read-ahead",
                  xlabel="strides"),
        stride_configs(), STRIDES,
        functools.partial(run_stride_once, scale=scale), runs, seed)
