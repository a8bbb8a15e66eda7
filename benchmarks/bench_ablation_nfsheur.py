"""Ablation A3: nfsheur geometry — table size and probe window (§6.3).

Sweep the table size at 32 concurrent readers (the paper's worst case
for the stock table).  Expected: throughput rises with table size until
every active handle keeps its slot, then flattens — "it is apparently
more important to have an entry in nfsheur for each active file than it
is for those entries to be completely accurate."
"""

from conftest import RESULTS_DIR, bench_scale, bench_seed

from repro.bench.runner import run_nfs_once
from repro.host import TestbedConfig
from repro.nfs import NfsHeurParams

TABLE_SIZES = (4, 8, 16, 64, 256)
READERS = 32


def sweep():
    rows = []
    for size in TABLE_SIZES:
        params = NfsHeurParams(table_size=size, max_probes=min(4, size))
        config = TestbedConfig(drive="ide", partition=1, transport="udp",
                               nfsheur=params, seed=bench_seed())
        result = run_nfs_once(config, READERS, scale=bench_scale())
        rows.append((size, result.throughput_mb_s))
    return rows


def test_ablation_nfsheur_geometry(benchmark):
    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    lines = [f"Ablation A3: nfsheur table size at {READERS} readers "
             "(ide1, NFS/UDP)",
             f"{'slots':>6s} {'MB/s':>8s}"]
    for size, mbps in rows:
        lines.append(f"{size:>6d} {mbps:>8.2f}")
    text = "\n".join(lines)
    print("\n" + text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "ablation_nfsheur.txt").write_text(text + "\n")

    by_size = dict(rows)
    # A table with a slot per active file beats a thrashing one...
    assert by_size[64] > 1.2 * by_size[8]
    # ...and growing it further is pure flatline.
    assert abs(by_size[256] - by_size[64]) / by_size[64] < 0.15
