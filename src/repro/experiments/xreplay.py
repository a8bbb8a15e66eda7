"""Extension XR: replaying a captured workload against other testbeds.

The trap this experiment demonstrates is benchmarking with the wrong
load model: a synthetic benchmark re-tuned per configuration tells you
nothing about how *one fixed workload* behaves as the testbed changes.
Trace replay holds the workload constant: capture the §4.3 benchmark
once on the paper's baseline (UDP transport, stock FreeBSD read-ahead
heuristic, small nfsheur table), then replay that exact operation
stream — closed loop, dependency-ordered — against both the baseline
and an improved testbed (TCP transport, SlowDown+cursors heuristic,
enlarged nfsheur), scaling the trace to 1..8 clients with Zipfian
file-popularity remapping along the way.

The gap between the two series at each client count is attributable
entirely to the testbed, because the offered operation stream is
byte-identical; ``replay.offered_*`` gauges carry the offered side into
the metrics registry for any run with metrics on.
"""

from __future__ import annotations

from dataclasses import replace

from ..host.testbed import TestbedConfig
from ..replay import capture_nfs_run, replay_trace
from ..replay.engine import CLOSED_LOOP
from ..sim.rand import run_seed
from ..stats import RunningSummary, SeriesSet
from .registry import register

CLIENT_COUNTS = (1, 2, 4, 8)


@register(
    "xreplay",
    title="Trace replay: one captured workload, two testbeds",
    paper_claim=("holding the workload constant via capture/replay "
                 "isolates the testbed's contribution; synthetic "
                 "re-runs conflate workload and configuration"))
def run(scale: float = 0.125, runs: int = 3, seed: int = 0) -> SeriesSet:
    source = TestbedConfig(transport="udp", server_heuristic="default",
                           nfsheur="default", num_clients=2, seed=seed)
    trace = capture_nfs_run(source, nreaders=2, scale=scale)
    targets = [
        ("udp/default (as captured)", source),
        ("tcp/cursors/improved",
         replace(source, transport="tcp", server_heuristic="cursor",
                 nfsheur="improved")),
    ]
    figure = SeriesSet(
        title="Closed-loop replay throughput vs replay clients",
        xlabel="replay clients")
    for label, target in targets:
        series = figure.new_series(label)
        for clients in CLIENT_COUNTS:
            acc = RunningSummary()
            for run_index in range(runs):
                result = replay_trace(
                    trace,
                    target.with_seed(run_seed(seed, run_index) + clients),
                    mode=CLOSED_LOOP, clients=clients)
                acc.add(result.throughput_mb_s)
            series.add(clients, acc.freeze())
    return figure
