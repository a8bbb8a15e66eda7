"""Extension X4 — graceful degradation under injected faults.

Extension X3 (``xlossy``) showed the §5.4 transport asymmetry with a
memoryless per-frame loss model.  This experiment injects the *bursty*
loss real networks exhibit (a Gilbert–Elliott chain), crosses it with
the mount's error semantics (hard vs soft), and reports what each
configuration actually delivers to the application:

* **goodput** — application bytes delivered over wall-clock time (for
  hard mounts, equal to throughput: every byte eventually arrives);
* **client-visible error rate** — the fraction of read() calls a soft
  mount failed with ``ETIMEDOUT`` (hard mounts never fail, by
  construction);
* **retransmissions** and the server **dupreq-cache hit rate** — the
  recovery machinery working, with zero duplicate executions.

Expected shape, echoing §5.4: every curve degrades monotonically with
mean loss; UDP (all-or-nothing datagrams, coarse RPC timer with
exponential backoff) collapses much faster than TCP (per-segment
recovery); soft mounts trade availability for bounded latency, turning
the worst of the delay into visible errors.
"""

from __future__ import annotations

from ..bench.runner import run_faulted_once
from ..faults import FaultSpec, NetworkFaults
from ..host.testbed import TestbedConfig
from ..sim.rand import run_seed
from ..stats import RunningSummary, SeriesSet
from .registry import Claim, register

READERS = 4
#: Mean frame-loss rates swept; bursts average BURST_FRAMES frames.
MEAN_LOSS = (0.0, 0.005, 0.02, 0.06)
BURST_FRAMES = 4.0


def _config(transport: str, soft: bool, mean_loss: float,
            seed: int) -> TestbedConfig:
    faults = None
    if mean_loss > 0.0:
        faults = FaultSpec(network=NetworkFaults.from_mean_loss(
            mean_loss, burst_frames=BURST_FRAMES))
    return TestbedConfig(drive="ide", partition=1, transport=transport,
                         faults=faults, mount_soft=soft, seed=seed)


@register(
    id="xfaults",
    title="Extension: fault injection — burst loss x transport x mount",
    paper_claim=("Section 5.4: transport and mount options dominate "
                 "behaviour under adverse conditions — TCP degrades "
                 "gracefully where UDP's all-or-nothing datagrams and "
                 "coarse retransmission timer collapse; soft mounts "
                 "convert unbounded delay into client-visible errors."),
    claims=[
        Claim("xfaults/goodput-never-rises-with-loss",
              "hard-mount goodput never rises with mean loss, over UDP or TCP",
              lambda f: all(f["xfaults"].get(label).means
                            == sorted(f["xfaults"].get(label).means,
                                      reverse=True)
                            for label in ("udp-hard", "tcp-hard"))),
        # TCP's per-segment recovery degrades far more gracefully than
        # UDP's all-or-nothing datagrams at high burst loss (§5.4).
        Claim("xfaults/tcp-beats-udp-at-heavy-loss",
              "at 6% mean loss TCP's hard-mount goodput is over 2x UDP's",
              lambda f: f["xfaults"].mean("tcp-hard", 0.06)
              > 2 * f["xfaults"].mean("udp-hard", 0.06)),
        Claim("xfaults/tcp-soft-no-errors-without-loss",
              "a soft TCP mount fails no reads at zero loss",
              lambda f: f["xfaults"].mean("tcp-soft err%", 0.0) == 0.0),
    ])
def run(scale: float = 0.125, runs: int = 3, seed: int = 0) -> SeriesSet:
    figure = SeriesSet(
        "Extension X4: goodput under bursty loss (4 readers, ide1)",
        xlabel="mean frame loss rate",
        ylabel="Goodput (MB/s); err% columns = failed reads / reads")
    combos = [("udp", False, "udp-hard"), ("tcp", False, "tcp-hard"),
              ("udp", True, "udp-soft"), ("tcp", True, "tcp-soft")]
    goodput = {label: figure.new_series(label)
               for _, _, label in combos}
    err = {label: figure.new_series(f"{label} err%")
           for transport, soft, label in combos if soft}

    for transport, soft, label in combos:
        for mean_loss in MEAN_LOSS:
            acc = RunningSummary()
            err_acc = RunningSummary()
            for run_index in range(runs):
                config_seed = (run_seed(seed, run_index)
                               + int(mean_loss * 100_000))
                config = _config(transport, soft, mean_loss, config_seed)
                result = run_faulted_once(config, READERS, scale=scale)
                if result.duplicate_executions:
                    raise AssertionError(
                        f"{label}@{mean_loss}: dupreq cache let "
                        f"{result.duplicate_executions} retransmitted "
                        "requests execute twice")
                acc.add(result.goodput_mb_s)
                err_acc.add(100.0 * result.error_rate)
                # The per-run recovery counters the summary erases —
                # published so ``--detail-out`` (and tests) can see the
                # machinery working, not just the goodput it saved.
                figure.detail.append({
                    "label": label, "transport": transport,
                    "soft": soft, "mean_loss": mean_loss,
                    "run_index": run_index, "seed": config_seed,
                    "goodput_mb_s": result.goodput_mb_s,
                    "error_rate": result.error_rate,
                    "rpc_timeouts": result.rpc_timeouts,
                    "retransmits": result.retransmits,
                    "tcp_segment_retransmits":
                        result.tcp_segment_retransmits,
                    "dupreq_hits": result.dupreq_hits,
                    "dupreq_evictions": result.dupreq_evictions,
                    "duplicate_executions": result.duplicate_executions,
                    "verifier_resends": result.verifier_resends,
                    "commit_retries": result.commit_retries,
                    "server_crashes": result.server_crashes,
                })
            goodput[label].add(mean_loss, acc.freeze())
            if soft:
                err[label].add(mean_loss, err_acc.freeze())
    return figure
