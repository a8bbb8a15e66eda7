"""Extension X3 — NFS over a lossy network (§2's wireless scenario).

The related-work section cites Dube et al. on NFS over wireless links,
"which typically suffer from packet loss and reordering at much higher
rates than our switched Ethernet testbed".  This experiment sweeps the
per-frame loss rate for a 4-reader benchmark over both transports.

Expected shape: UDP collapses quickly — an 8 KiB read reply spans six
Ethernet frames and the loss of any one loses the whole datagram, to be
recovered only by a coarse RPC retransmission timer — while TCP
degrades far more gracefully (per-segment recovery).  This is the
quantitative version of §5.4's "on a wide-area network, or a local
network with frequent packet loss, TCP connections can provide better
performance than UDP".
"""

from __future__ import annotations

from dataclasses import replace

from ..bench.runner import run_nfs_once
from ..host.testbed import TestbedConfig
from ..stats import SeriesSet
from .common import sweep
from .registry import Claim, register

READERS = 4
LOSS_RATES = (0.0, 0.001, 0.005, 0.02)


@register(
    id="xlossy",
    title="Extension: UDP vs TCP under frame loss",
    paper_claim=("Sections 2/5.4: with packet loss, TCP's per-segment "
                 "recovery beats UDP's all-or-nothing datagrams and "
                 "coarse RPC retransmission."),
    claims=[
        Claim("xlossy/udp-collapses-tcp-degrades",
              "2% loss: UDP keeps under 10%, TCP over 30%; 0.5%: TCP 3x UDP",
              lambda f: f["xlossy"].mean("udp", 0.02)
              < 0.1 * f["xlossy"].mean("udp", 0.0)
              and f["xlossy"].mean("tcp", 0.02)
              > 0.3 * f["xlossy"].mean("tcp", 0.0)
              and f["xlossy"].mean("tcp", 0.005)
              > 3 * f["xlossy"].mean("udp", 0.005)),
    ])
def run(scale: float = 0.125, runs: int = 3, seed: int = 0) -> SeriesSet:
    figure = SeriesSet(
        "Extension X3: frame loss (4 readers, ide1)",
        xlabel="frame loss rate")
    configs = [(transport, TestbedConfig(drive="ide", partition=1,
                                         transport=transport))
               for transport in ("udp", "tcp")]

    def point(config, loss_rate):
        return run_nfs_once(replace(config, loss_rate=loss_rate),
                            READERS, scale=scale)

    return sweep(figure, configs, LOSS_RATES, point, runs, seed,
                 offset=lambda loss_rate: int(loss_rate * 10_000))
