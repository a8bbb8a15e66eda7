"""Ablation A4: request reordering vs concurrency, CPU load, transport.

Reproduces the paper's §6 instrumentation numbers: reordering grows
with the number of concurrent readers and with client CPU load; it is
markedly higher over UDP than TCP ("we were unable to exceed 6 % on UDP
and 2 % on TCP" on their well-behaved gigabit LAN).
"""

from functools import partial

from conftest import RESULTS_DIR, bench_scale, bench_seed

from repro.bench.fileset import files_for_readers
from repro.bench.readers import ReaderResult, sequential_reader
from repro.host import TestbedConfig, build_nfs_testbed
from repro.trace import reorder_fraction

CASES = [
    ("udp", 0), ("udp", 4), ("tcp", 0), ("tcp", 4),
]
READER_COUNTS = (2, 8, 32)


def measure(transport, busy, readers):
    config = TestbedConfig(transport=transport,
                           client_busy_loops=busy,
                           record_server_trace=True,
                           seed=bench_seed())
    testbed = build_nfs_testbed(config)
    specs = files_for_readers(readers, bench_scale())
    for spec in specs:
        testbed.server.export_file(spec.name, spec.size)
    for spec in specs:
        testbed.sim.spawn(sequential_reader(
            testbed.sim, partial(testbed.mount.open, spec.name),
            testbed.mount.read, spec.size, ReaderResult(spec.name)))
    testbed.sim.run()
    return reorder_fraction(testbed.server.trace)


def sweep():
    rows = []
    for transport, busy in CASES:
        for readers in READER_COUNTS:
            rows.append((transport, busy, readers,
                         measure(transport, busy, readers)))
    return rows


def test_ablation_reordering(benchmark):
    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    lines = ["Ablation A4: request reordering at the server",
             f"{'transport':>9s} {'busy':>5s} {'readers':>8s} "
             f"{'reordered':>10s}"]
    for transport, busy, readers, fraction in rows:
        lines.append(f"{transport:>9s} {busy:>5d} {readers:>8d} "
                     f"{fraction:>9.1%}")
    text = "\n".join(lines)
    print("\n" + text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "ablation_reorder.txt").write_text(text + "\n")

    table = {(t, b, r): f for t, b, r, f in rows}
    # UDP reorders more than TCP in every matched configuration.
    for busy in (0, 4):
        for readers in READER_COUNTS:
            assert table[("udp", busy, readers)] >= \
                table[("tcp", busy, readers)]
    # CPU load increases UDP reordering (the paper's busy-loop effect).
    assert table[("udp", 4, 8)] > table[("udp", 0, 8)]
    # The LAN stays in the paper's regime: single-digit percentages.
    assert all(fraction < 0.20 for _, _, _, fraction in rows)
