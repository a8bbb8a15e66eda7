"""Extension X1 — mixed read/write/metadata workload (§8 future work).

"We plan to investigate the effect [of] SlowDown and the cursor-based
read-ahead heuristics on a more complex and realistic workload (for
example, adding a large number of metadata and write requests to the
workload)."  This experiment runs the 8-reader NFS/UDP benchmark on
ide1 while 0, 2, or 4 writers overwrite other files and two GETATTR
streams tick away, for three server configurations.

Expected shape (measured, not from the paper): write traffic costs all
configurations read throughput (the disk head now serves two request
classes), but the ordering — Always ≥ improved-table default ≥
stock-table default — survives the noise.
"""

from __future__ import annotations

from ..bench.mixed import run_mixed_once
from ..host.testbed import TestbedConfig
from ..stats import SeriesSet
from .common import sweep
from .registry import register

READERS = 8
WRITER_COUNTS = (0, 2, 4)


@register(
    id="xmixed",
    title="Extension: read throughput under mixed write/metadata load",
    paper_claim=("Section 8 future work: heuristic benefits should "
                 "survive the addition of write and metadata traffic."))
def run(scale: float = 0.125, runs: int = 3, seed: int = 0) -> SeriesSet:
    figure = SeriesSet(
        "Extension X1: mixed workload (8 readers + N writers, ide1/UDP)",
        xlabel="writers")
    configs = [
        ("always", TestbedConfig(drive="ide", partition=1,
                                 transport="udp",
                                 server_heuristic="always")),
        ("default/new-nfsheur", TestbedConfig(
            drive="ide", partition=1, transport="udp",
            server_heuristic="default", nfsheur="improved")),
        ("default/default-nfsheur", TestbedConfig(
            drive="ide", partition=1, transport="udp",
            server_heuristic="default", nfsheur="default")),
    ]

    def point(config, nwriters):
        return run_mixed_once(config, READERS, nwriters=nwriters,
                              nstatters=2, scale=scale)

    return sweep(figure, configs, WRITER_COUNTS, point, runs, seed)
