"""Shared configuration for the figure-regeneration benchmarks.

Each benchmark runs one paper experiment or ablation end to end in the
simulator, prints the regenerated figure, and archives it under
``benchmarks/results/``.  pytest-benchmark wraps the run so the wall
cost of each experiment is tracked too.

Environment knobs:

* ``REPRO_BENCH_SCALE`` — file-size scale factor (default 0.125; set to
  1.0 for the paper's full 256 MB working set).
* ``REPRO_BENCH_RUNS`` — runs per point (default 2; the paper uses 10+).
* ``REPRO_BENCH_SEED`` — master seed (default 0).
"""

import os
import pathlib

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def bench_scale() -> float:
    return float(os.environ.get("REPRO_BENCH_SCALE", "0.125"))


def bench_runs(default: int = 2) -> int:
    return int(os.environ.get("REPRO_BENCH_RUNS", str(default)))


def bench_seed() -> int:
    return int(os.environ.get("REPRO_BENCH_SEED", "0"))
