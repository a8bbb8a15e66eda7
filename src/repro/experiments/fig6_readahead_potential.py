"""Figure 6: the potential improvement from better read-ahead (§6.1).

NFS over UDP on ide1, comparing the default read-ahead heuristic with
the hard-wired "Always Read-ahead" upper bound, on an idle client and on
a client running four infinite-loop processes.  Expected shapes:

* idle: the two lines track up to ~4 readers, then diverge — Always
  stays high while the default decays;
* busy: everything is slower (NFS client processing is significant) and,
  counter-intuitively, the Always-vs-default gap is *smaller*.
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
    id="fig6",
    title="Always vs Default read-ahead, idle and busy client",
    paper_claim=("Default and Always diverge above four concurrent "
                 "readers; a busy client lowers throughput but narrows "
                 "the gap."))
def run(scale: float = 0.125, runs: int = 3, seed: int = 0) -> SeriesSet:
    base = dict(drive="ide", partition=1, transport="udp")
    configs = [
        ("always/idle", TestbedConfig(server_heuristic="always", **base)),
        ("default/idle", TestbedConfig(server_heuristic="default",
                                       **base)),
        ("always/busy", TestbedConfig(server_heuristic="always",
                                      client_busy_loops=4, **base)),
        ("default/busy", TestbedConfig(server_heuristic="default",
                                       client_busy_loops=4, **base)),
    ]
    return sweep(
        SeriesSet("Figure 6: read-ahead potential (ide1 via NFS/UDP)",
                  xlabel="readers"),
        configs, READER_COUNTS,
        functools.partial(run_nfs_once, scale=scale), runs, seed)
