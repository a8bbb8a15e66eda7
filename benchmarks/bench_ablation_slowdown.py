"""Ablation A1: SlowDown's near-match window.

§6.2 fixes the window at 64 KiB ("eight 8k NFS blocks") and the decay
at halving (``SLOWDOWN_DIVISOR``, a constant).  This ablation sweeps
the window, two ways:

* analytically, on synthetic reordered traces (mean sustained
  seqCount), and
* end to end, on the 16-reader NFS/UDP benchmark.

Expected: a window of zero degenerates to the default heuristic; very
large windows stop distinguishing jitter from randomness (random traces
keep their count); 64 KiB sits on the plateau.
"""

import random

from conftest import RESULTS_DIR, bench_scale, bench_seed

from repro.bench.runner import run_nfs_once
from repro.host import TestbedConfig
from repro.readahead import SlowDownHeuristic
from repro.trace import mean_seqcount, random_trace, sequential_trace

WINDOWS = (0, 8 * 1024, 64 * 1024, 512 * 1024, 4 * 1024 * 1024)


def trace_sweep():
    reordered = sequential_trace("fh", 4000, reorder_probability=0.06,
                                 rng=random.Random(1))
    chaos = random_trace("fh", 1024, accesses=2000,
                         rng=random.Random(2))
    rows = []
    for window in WINDOWS:
        heuristic = SlowDownHeuristic(window=window)
        rows.append((window,
                     mean_seqcount(reordered, heuristic),
                     mean_seqcount(chaos, heuristic)))
    return rows


def end_to_end_sweep():
    rows = []
    for window in WINDOWS:
        config = TestbedConfig(
            drive="ide", partition=1, transport="udp",
            server_heuristic="slowdown", nfsheur="improved",
            heuristic_options={"window": window},
            client_busy_loops=4, seed=bench_seed())
        result = run_nfs_once(config, 16, scale=bench_scale())
        rows.append((window, result.throughput_mb_s))
    return rows


def test_ablation_slowdown_window(benchmark):
    trace_rows, bench_rows = benchmark.pedantic(
        lambda: (trace_sweep(), end_to_end_sweep()),
        rounds=1, iterations=1)
    lines = ["Ablation A1: SlowDown window sweep",
             f"{'window':>10s} {'seq(reordered)':>15s} "
             f"{'seq(random)':>12s} {'MB/s (16 rdr)':>14s}"]
    for (window, seq_reordered, seq_random), (_w, mbps) in zip(
            trace_rows, bench_rows):
        lines.append(f"{window:>10d} {seq_reordered:>15.1f} "
                     f"{seq_random:>12.2f} {mbps:>14.2f}")
    text = "\n".join(lines)
    print("\n" + text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "ablation_slowdown.txt").write_text(text + "\n")

    by_window = {row[0]: row for row in trace_rows}
    # window=0 ~ default behaviour: reordering kills the count.
    assert by_window[0][1] < by_window[64 * 1024][1] / 3
    # The paper's 64 KiB choice must not leak read-ahead to randomness.
    assert by_window[64 * 1024][2] < 3.0
    # An absurdly large window does leak on random access patterns.
    assert by_window[4 * 1024 * 1024][2] > by_window[64 * 1024][2]
