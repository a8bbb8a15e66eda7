"""Extension X2 — file system aging (§3's untested claim).

The paper benchmarks fresh file systems only and argues: "read-ahead
heuristics increase in importance as file systems age.  Therefore, any
benefit we see for a fresh file system should be even more pronounced
on an aged file system."  Our allocator's fragmentation knob lets us
test that claim: files are split into scattered chunks with gaps, and
we measure the Always-vs-no-read-ahead gap as fragmentation grows.

Expected shape: absolute throughput falls with fragmentation for
everyone; the *relative* value of read-ahead (Always over a
no-read-ahead server) stays large — the claim holds in the sense that
read-ahead remains the difference between streaming and seeking.
"""

from __future__ import annotations

from dataclasses import replace

from ..bench.runner import run_nfs_once
from ..host.testbed import TestbedConfig
from ..stats import SeriesSet
from .common import sweep
from .registry import Claim, register

READERS = 8
FRAGMENTATION = (0.0, 0.25, 0.5, 0.75)


@register(
    id="xaged",
    title="Extension: read-ahead value on an aged (fragmented) FS",
    paper_claim=("Section 3: 'any benefit we see for a fresh file "
                 "system should be even more pronounced on an aged "
                 "file system.'"),
    claims=[
        Claim("xaged/readahead-value-stays-large",
              "Always beats no read-ahead by over 3x at every fragmentation",
              lambda f: all(f["xaged"].mean("always", fragmentation)
                            > 3 * f["xaged"].mean("no-readahead",
                                                  fragmentation)
                            for fragmentation in FRAGMENTATION)),
    ])
def run(scale: float = 0.125, runs: int = 3, seed: int = 0) -> SeriesSet:
    figure = SeriesSet(
        "Extension X2: aging the file system (8 readers, ide1/UDP)",
        xlabel="fragmentation")
    configs = [
        ("always", TestbedConfig(drive="ide", partition=1,
                                 transport="udp",
                                 server_heuristic="always",
                                 nfsheur="improved")),
        ("default", TestbedConfig(drive="ide", partition=1,
                                  transport="udp",
                                  server_heuristic="default",
                                  nfsheur="improved")),
        ("no-readahead", TestbedConfig(drive="ide", partition=1,
                                       transport="udp",
                                       server_heuristic="none",
                                       nfsheur="improved")),
    ]

    def point(config, fragmentation):
        return run_nfs_once(replace(config, fragmentation=fragmentation),
                            READERS, scale=scale)

    return sweep(figure, configs, FRAGMENTATION, point, runs, seed,
                 offset=lambda fragmentation: int(fragmentation * 100))
