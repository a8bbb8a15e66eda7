"""Table 1: stride-read means and standard deviations (§7).

The same experiment as Figure 8, reported the way the paper tabulates
it: mean throughput (MB/s) of repeated runs of a single 256 MB stride
reader, with the standard deviation in parentheses, for
``{ide1, scsi1} x {default, cursor} x s in {2, 4, 8}``.

Paper's cells (mean (std), MB/s)::

    ide1  UDP/Default   7.66 (0.02)   7.83 (0.02)   5.26 (0.02)
          UDP/Cursor   11.49 (0.29)  14.15 (0.14)  12.66 (0.43)
    scsi1 UDP/Default   9.49 (0.03)   8.52 (0.04)   8.21 (0.03)
          UDP/Cursor   15.39 (0.20)  15.38 (0.15)  14.12 (0.46)

We reproduce the *relationships*: cursor > default in every cell by
>=50 %, the ide1 default dip at s=8, and scsi1 default's flat ~8-9.
"""

from __future__ import annotations

import functools

from ..bench.runner import run_stride_once
from ..stats import SeriesSet
from .common import sweep
from .fig8_stride import STRIDES, stride_claims, stride_configs
from .registry import register


@register(
    id="table1",
    title="Mean stride-read throughput, default vs cursor",
    paper_claim=("Cursor beats default by >=50% in all six cells; "
                 "ide1 default dips at s=8 while scsi1 default stays "
                 "~8-9 MB/s."),
    claims=stride_claims("table1"))
def run(scale: float = 0.125, runs: int = 10, seed: int = 0) -> SeriesSet:
    return sweep(
        SeriesSet("Table 1: stride-read throughput, mean (std) over runs",
                  xlabel="strides"),
        stride_configs(), STRIDES,
        functools.partial(run_stride_once, scale=scale), runs, seed)
