"""Figure 7: SlowDown and the enlarged nfsheur table (§6.2–6.3).

NFS over UDP on ide1 with a busy client (as in Figure 6's right panel),
comparing:

* Always Read-ahead (the yardstick),
* SlowDown with the new (enlarged) nfsheur table,
* the default heuristic with the new table, and
* the default heuristic with the default table.

Expected shape — the paper's punchline: the new table alone recovers
Always-level throughput for many concurrent readers; SlowDown adds no
further improvement; the stock table is the real bottleneck.
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
    id="fig7",
    title="SlowDown and the new nfsheur table",
    paper_claim=("The enlarged nfsheur restores Always-level throughput "
                 "beyond four readers; SlowDown makes no further "
                 "improvement; 'an entry per active file' beats "
                 "'accurate entries'."))
def run(scale: float = 0.125, runs: int = 3, seed: int = 0) -> SeriesSet:
    base = dict(drive="ide", partition=1, transport="udp",
                client_busy_loops=4)
    configs = [
        ("always", TestbedConfig(server_heuristic="always", **base)),
        ("slowdown/new-nfsheur", TestbedConfig(
            server_heuristic="slowdown", nfsheur="improved", **base)),
        ("default/new-nfsheur", TestbedConfig(
            server_heuristic="default", nfsheur="improved", **base)),
        ("default/default-nfsheur", TestbedConfig(
            server_heuristic="default", nfsheur="default", **base)),
    ]
    return sweep(
        SeriesSet("Figure 7: SlowDown and nfsheur (ide1 via NFS/UDP, "
                  "busy client)", xlabel="readers"),
        configs, READER_COUNTS,
        functools.partial(run_nfs_once, scale=scale), runs, seed)
