"""Extension X6 — the metadata benchmark the paper never ran (§8).

§8 closes by conceding that the benchmark "does not explore
interesting NFS issues such as file and directory creation and
manipulation".  This experiment runs that missing workload: Zipf-
popular ``stat()`` probes over a 10,000-file directory tree, swept
over both transports and over the client attribute-cache window —
``acregmax=0`` (every stat pays a GETATTR round trip, the cold/
paranoid mount) against the FreeBSD default ``acregmax=60``
(namespace answers come from client memory).

Expected shape: with the cache on, both transports converge to the
client-side cost of a cache hit — the server barely matters — while
``acregmax=0`` drops throughput by an order of magnitude and
re-exposes the transport: every probe is a synchronous RPC, so UDP's
lower per-call overhead beats TCP visibly.  The pair of gaps is the
metadata version of the paper's thesis — the knob you forgot to
report (here a mount option, not a disk zone) can dwarf the effect
you meant to measure.
"""

from __future__ import annotations

from dataclasses import replace

from ..host.testbed import TestbedConfig
from ..stats import SeriesSet
from ..workloads import (NamespaceTreeSpec, NamespaceWorkload,
                         run_namespace_once)
from .common import sweep
from .registry import Claim, register

FILES = 10_000
OPS = 400
#: acregmax sweep: paranoid (cache off) → default → long-lived.
ACREGMAX_POINTS = (0.0, 3.0, 60.0)


@register(
    id="xnamespace",
    title="Extension: attribute-cache window under a stat() storm",
    paper_claim=("Section 8: the benchmark skips file and directory "
                 "manipulation; a metadata workload is dominated by "
                 "the client attribute cache, an unreported mount "
                 "option that dwarfs the transport choice."),
    claims=[
        # With the cache off every probe is a synchronous RPC, so the
        # per-call transport cost separates udp from tcp clearly.
        Claim("xnamespace/attrcache-window-dominates",
              "acregmax=0 gets under half 60 s's stat() rate; UDP 1.5x TCP",
              lambda f: all(f["xnamespace"].mean(transport, 0.0)
                            < 0.5 * f["xnamespace"].mean(transport, 60.0)
                            for transport in ("udp", "tcp"))
              and f["xnamespace"].mean("udp", 0.0)
              > 1.5 * f["xnamespace"].mean("tcp", 0.0)),
    ])
def run(scale: float = 0.125, runs: int = 3, seed: int = 0) -> SeriesSet:
    files = max(64, int(FILES * scale * 8))
    tree = NamespaceTreeSpec(files=files, depth=1, fanout=16)
    workload = NamespaceWorkload(pattern="stat", ops=OPS)
    figure = SeriesSet(
        f"Extension X6: stat() over {files} files vs acregmax",
        xlabel="acregmax (s)", ylabel="Throughput (stat() ops/s)")
    configs = [(transport, TestbedConfig(drive="ide", partition=1,
                                         transport=transport))
               for transport in ("udp", "tcp")]

    def point(config, acregmax):
        return run_namespace_once(
            replace(config, acregmax=acregmax,
                    acregmin=min(config.acregmin, acregmax)),
            tree, workload)

    return sweep(figure, configs, ACREGMAX_POINTS, point, runs, seed,
                 metric="ops_per_s")
