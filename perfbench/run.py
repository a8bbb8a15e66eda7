#!/usr/bin/env python3
"""The simulator's benchmark: one workload, one seed, one JSON result.

    python3 perfbench/run.py --workload replay-read --seed 0 \\
        --seconds 10 --trace 0

Run from the root of a checkout.  The workload's inputs are made from
``--seed``; set-up is repeated and its median reported; batches of
operations run for ``--seconds`` of host time and the median batch rate
is reported.  Host times are scaled to a reference machine speed,
measured around each set-up and batch (see ``calibrate.py``).  Every
batch's simulated output is checked first: a failed check exits 1 with
a one-line diagnostic and prints no result.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the
same untraced batches, then one batch with call counters and one under
cProfile, and reports the per-layer metrics.  The line before the
result is a ``perfbench`` record: run manifest, simulated-result
digest, exact counters and raw wall-clock samples, kept apart.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: name -> (unit, better), as in BENCHMARK.json.
END_TO_END = {
    "ops_per_s": ("1/s", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

#: Set-ups timed per run (the median is reported).
SETUP_REPEATS = 5
#: Batches run at least, however short ``--seconds`` is.
MIN_BATCHES = 3


def _commit():
    """The checked-out commit, read from ``.git`` when there is one."""
    head_path = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head_path) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path) as handle:
                return handle.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    """SHA-256 over every simulator source file, path and content."""
    digest = hashlib.sha256()
    repro = os.path.join(SRC, "repro")
    for folder, dirs, files in os.walk(repro):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, SRC).encode() + b"\0")
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def manifest(seed: int) -> dict:
    return {"commit": _commit(), "source_sha256": _source_digest(),
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform(), "nproc": os.cpu_count(),
            "seed": seed}


def _recorded_digest(workload: str, seed: int):
    with open(os.path.join(HERE, "digests.json")) as handle:
        return json.load(handle).get(workload, {}).get(str(seed))


def measure(workload, seed: int, seconds: float, trace: bool,
            workdir: str) -> dict:
    """Run one workload; return the record of everything measured.

    Raises :class:`workloads.GateFailure` when a simulated output is
    wrong, when repeats of one input disagree, or when tracing changed
    the simulated result.
    """
    from calibrate import calibrated
    from tracing import (PHASES, LayerCounts, SetupClock, installed,
                         layer_metrics, profile_layers)
    from workloads import GateFailure, Phases

    with installed(SetupClock()) as clock:
        prepare_s, prepare_factors = [], []
        for _ in range(SETUP_REPEATS):
            inputs, wall, factor = calibrated(lambda: workload.prepare(seed))
            prepare_s.append(wall)
            prepare_factors.append(factor)

        batches, walls, setups, factors, phase_runs = [], [], [], [], []
        started = time.perf_counter()
        while (len(batches) < MIN_BATCHES
               or time.perf_counter() - started < seconds):
            clock.reset()
            phases = Phases()
            batch, wall, factor = calibrated(
                lambda: workload.run(inputs, phases, workdir))
            batches.append(batch)
            walls.append(wall)
            setups.append(clock.seconds)
            factors.append(factor)
            for name in PHASES:
                if name not in phases.seconds:
                    with phases.time(name):
                        pass
            phase_runs.append(phases.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    digest = batches[0].digest
    if any(batch.digest != digest for batch in batches):
        raise GateFailure("repeats of one input gave different "
                          "simulated results")
    ops = batches[0].ops
    op_walls = [wall - setup for wall, setup in zip(walls, setups)]
    record = {
        "workload": workload.name, "seed": seed, "trace": int(trace),
        "digest": digest,
        "counters": {"batches": len(batches), "ops_per_batch": ops},
        "wall": {"prepare_s": prepare_s, "prepare_factor": prepare_factors,
                 "batch_s": walls, "batch_setup_s": setups,
                 "batch_factor": factors},
        "attempted": sum(batch.attempted for batch in batches),
        "failed": sum(batch.failed for batch in batches),
    }
    if not trace:
        # Host times scaled to the reference machine (see calibrate.py).
        record["metrics"] = {
            "ops_per_s": median(ops / (wall * factor)
                                for wall, factor in zip(op_walls, factors)),
            "setup_s": median(wall * factor for wall, factor
                              in zip(prepare_s, prepare_factors))
                       + median(setup * factor for setup, factor
                                in zip(setups, factors)),
            "peak_rss_mb": peak_rss_mb,
        }
        return record

    counts = LayerCounts()
    with installed(counts):
        counted = workload.run(inputs, Phases(), workdir)
    profiled, traced_wall, shares = profile_layers(
        lambda: workload.run(inputs, Phases(), workdir))
    if counted.digest != digest or profiled.digest != digest:
        raise GateFailure("tracing changed the simulated result")
    record["counters"].update(counts.calls)
    record["counters"].update(counted.counts)
    record["missing_entry_points"] = counts.missing
    record["wall"]["traced_batch_s"] = traced_wall
    record["metrics"] = layer_metrics(
        counts, ops, counted.counts, shares,
        {name: median([run[name] for run in phase_runs])
         for name in PHASES},
        median(op_walls), traced_wall / median(walls))
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no simulator source under {SRC}; run from the "
              f"root of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from tracing import PER_LAYER
    from workloads import WORKLOADS, GateFailure
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; pick one of "
                     f"{', '.join(WORKLOADS)}")

    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        record = measure(WORKLOADS[args.workload], args.seed, args.seconds,
                         bool(args.trace), workdir)
    except GateFailure as failure:
        print(f"perfbench: {args.workload} seed {args.seed}: correctness "
              f"gate failed: {failure}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = PER_LAYER if args.trace else END_TO_END
    recorded = _recorded_digest(args.workload, args.seed)
    record["manifest"] = manifest(args.seed)
    record["recorded_digest"] = ("none" if recorded is None else
                                 "match" if recorded == record["digest"]
                                 else "differs")
    record["metrics"] = {
        name: {"value": value, "unit": units[name][0],
               "better": units[name][1]}
        for name, value in record["metrics"].items()}
    print("perfbench " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": True, "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": metric["value"], "unit": metric["unit"]}
                    for name, metric in record["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
