"""The bench-history store and the perf-regression gate.

``bench --history`` appends its record to
``benchmarks/results/history.jsonl`` — one sorted-key JSON object per
line, append-only, so successive CI runs accumulate a
per-configuration throughput history.  The comparator
answers "did this configuration get slower?" with a *noise-aware*
threshold: a drop only gates when the relative delta clears both a
floor and the spread the repeats themselves showed (the paper's own
criterion — "the standard deviation ... less than 5% of the mean" — is
the floor's default).
"""

from __future__ import annotations

import json
import os
from typing import List, Optional, Tuple

from .report import GateResult

#: Where `bench --json --history` folds its records by default.
DEFAULT_HISTORY_PATH = os.path.join("benchmarks", "results",
                                    "history.jsonl")

#: Regressions smaller than this never gate, however tight the spread:
#: the paper treats <5 % of the mean as measurement noise.
DEFAULT_FLOOR = 0.05

#: The fields that identify a benchmark configuration across runs.
KEY_FIELDS = ("verb", "drive", "partition", "transport", "heuristic",
              "nfsheur", "readers", "scale")
#: What else identifies a namespace point: its tree and workload.
NAMESPACE_KEY_FIELDS = ("workload", "pattern", "files", "tree_depth",
                        "fanout", "ops", "clients")


def _is_namespace(record: dict) -> bool:
    return record.get("workload") == "namespace"


def _metric(record: dict) -> Tuple[str, str, str]:
    """A record's ``(mean field, per-repeat field, unit)``: namespace
    points are measured in ops/s, streaming points in MB/s."""
    if _is_namespace(record):
        return "mean_ops_s", "ops_per_s", "ops/s"
    return "mean_mb_s", "throughputs_mb_s", "MB/s"


def bench_key(record: dict) -> str:
    """The identity of a bench record's configuration."""
    fields = KEY_FIELDS
    if _is_namespace(record):
        fields += NAMESPACE_KEY_FIELDS
    return "/".join(f"{field}={record.get(field)}" for field in fields)


def relative_spread(record: dict) -> float:
    """(max - min) / mean of the record's per-repeat values.

    The spread the repeats themselves showed is the tightest honest
    bound on run-to-run noise for this configuration; a single-repeat
    record has no spread and contributes 0.
    """
    values = record.get(_metric(record)[1]) or []
    if len(values) < 2:
        return 0.0
    mean = sum(values) / len(values)
    if mean <= 0:
        return 0.0
    return (max(values) - min(values)) / mean


def append_history(path: str, record: dict) -> None:
    """Fold one bench record into the history store (append-only).

    The append is atomic — the existing store plus the new line is
    written to a temporary file and renamed over the old one — so an
    interrupted ``bench --out/--history`` run (or a worker kill mid-
    campaign) can never leave the store with a torn trailing record
    that poisons every later ``diagnose --against``.  Because that is
    a read-modify-write (not an O_APPEND write), concurrent appenders
    — two bench runs sharing one store — serialise on a sidecar
    ``<path>.lock`` so neither silently drops the other's record.
    """
    from ..campaign.journal import atomic_write_text
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    line = json.dumps(record, sort_keys=True,
                      separators=(",", ":")) + "\n"
    with open(path + ".lock", "w") as lock:
        try:
            import fcntl
            fcntl.flock(lock.fileno(), fcntl.LOCK_EX)
        except ImportError:  # pragma: no cover - non-POSIX fallback
            pass
        try:
            with open(path) as handle:
                existing = handle.read()
        except OSError:
            existing = ""
        if existing and not existing.endswith("\n"):
            existing += "\n"
        atomic_write_text(path, existing + line)


def load_history(path: str) -> List[dict]:
    """Read the store; blank lines are tolerated, bad lines are not."""
    records: List[dict] = []
    with open(path) as handle:
        for line_number, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as error:
                raise ValueError(
                    f"{path}:{line_number}: not JSON: {error}") from None
            if not isinstance(record, dict):
                raise ValueError(f"{path}:{line_number}: "
                                 f"expected an object per line")
            records.append(record)
    return records


def compare_against_history(current: dict, history: List[dict],
                            floor: float = DEFAULT_FLOOR) -> GateResult:
    """Gate ``current`` against the most recent same-configuration record.

    The threshold is ``max(floor, spread)`` where ``spread`` is the
    larger of the two records' own repeat spreads — a configuration
    whose repeats scatter 10 % cannot honestly flag an 8 % drop, while
    one that repeats within 1 % is held to the floor.
    """
    key = bench_key(current)
    mean_field, _, unit = _metric(current)
    current_mean = current.get(mean_field, 0.0)
    baseline: Optional[dict] = None
    for record in history:
        if bench_key(record) == key and record is not current:
            baseline = record
    if baseline is None:
        return GateResult(ok=True, key=key,
                          reason="no prior record for this "
                                 "configuration; nothing to gate",
                          current_mean=current_mean)
    baseline_mean = baseline.get(mean_field, 0.0)
    if baseline_mean <= 0:
        return GateResult(ok=True, key=key,
                          reason="baseline mean is not positive; "
                                 "cannot compare",
                          current_mean=current_mean,
                          baseline_mean=baseline_mean)
    rel_delta = (baseline_mean - current_mean) / baseline_mean
    noise = max(relative_spread(current), relative_spread(baseline))
    threshold = max(floor, noise)
    if rel_delta > threshold:
        return GateResult(
            ok=False, key=key,
            reason=(f"throughput regressed {rel_delta:.1%} vs the "
                    f"previous record ({baseline_mean:.2f} -> "
                    f"{current_mean:.2f} {unit}), beyond the "
                    f"noise-aware threshold {threshold:.1%}"),
            current_mean=current_mean, baseline_mean=baseline_mean,
            rel_delta=rel_delta, threshold=threshold, noise=noise)
    if rel_delta < -threshold:
        reason = (f"throughput improved {-rel_delta:.1%} "
                  f"({baseline_mean:.2f} -> {current_mean:.2f} {unit})")
    else:
        reason = (f"within noise: delta {rel_delta:+.1%} against "
                  f"threshold {threshold:.1%}")
    return GateResult(ok=True, key=key, reason=reason,
                      current_mean=current_mean,
                      baseline_mean=baseline_mean,
                      rel_delta=rel_delta, threshold=threshold,
                      noise=noise)


def gate_latest(history: List[dict],
                floor: float = DEFAULT_FLOOR) -> GateResult:
    """Gate the store's newest record against its own history."""
    if not history:
        return GateResult(ok=True, key="(empty)",
                          reason="history store is empty")
    current = history[-1]
    return compare_against_history(current, history[:-1], floor=floor)
