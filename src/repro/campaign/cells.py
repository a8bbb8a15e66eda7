"""Campaign specs and cell runners: the unit of sharded work.

A campaign is ``cells`` executions of a pure function of
``(spec, index)`` — the same contract the serial paths already honour
(`bench` repeats are pure in the per-run seed, `chaos` schedules are
pure in the fuzzer seed and index).  Keeping the spec as plain JSON
data means a cell can be re-dispatched to any worker, re-run after a
crash, or re-run days later under ``--resume``, and must produce the
same result dict — which is what makes the final fold byte-identical
however the campaign was interrupted.

Two cell kinds ship:

* ``bench`` — one seeded `bench` repeat; result is the throughput
  (ops/s for a namespace point).
* ``chaos`` — one fuzzed fault schedule judged by the oracles; result
  is the verdict plus the run's SHA-256 fingerprint (the failure-dedupe
  key).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict

SPEC_VERSION = 1

#: TestbedConfig knobs a campaign spec may carry, with their defaults.
_TESTBED_KEYS = ("drive", "partition", "transport", "server_heuristic",
                 "nfsheur", "num_clients", "mount_verifier_recovery",
                 "metadata_journal", "meta_ack_before_intent",
                 "acregmin", "acregmax", "acdirmin", "acdirmax",
                 "readdir_count", "seed")


@dataclass(frozen=True)
class CampaignSpec:
    """A complete, JSON-able description of one campaign."""

    kind: str                     # "bench" | "chaos"
    cells: int
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in ("bench", "chaos"):
            raise ValueError(f"unknown campaign kind {self.kind!r}")
        if self.cells < 1:
            raise ValueError("a campaign needs at least one cell")

    def to_jsonable(self) -> dict:
        return {"version": SPEC_VERSION, "kind": self.kind,
                "cells": self.cells,
                "params": dict(sorted(self.params.items()))}

    @staticmethod
    def from_jsonable(data: dict) -> "CampaignSpec":
        if data.get("version") != SPEC_VERSION:
            raise ValueError(f"unsupported campaign spec version "
                             f"{data.get('version')!r}")
        return CampaignSpec(kind=data["kind"], cells=data["cells"],
                            params=dict(data.get("params", {})))

    def fingerprint(self) -> str:
        """SHA-256 over the canonical spec JSON: the campaign's identity."""
        blob = json.dumps(self.to_jsonable(), sort_keys=True,
                          separators=(",", ":")).encode()
        return hashlib.sha256(blob).hexdigest()


def _testbed_config(params: dict, index: int):
    from ..host.testbed import TestbedConfig
    from ..sim.rand import run_seed
    kwargs = {key: params[key] for key in _TESTBED_KEYS if key in params}
    return TestbedConfig(seed=run_seed(kwargs.pop("seed", 0), index),
                         **kwargs)


def namespace_point(params: dict):
    """The ``(tree, workload)`` of a namespace bench spec; raises
    ValueError for a tree or workload that cannot run."""
    from ..workloads import NamespaceTreeSpec, NamespaceWorkload
    return (NamespaceTreeSpec(files=params["files"],
                              depth=params["tree_depth"],
                              fanout=params["fanout"]),
            NamespaceWorkload(pattern=params["pattern"],
                              ops=params["ops"]))


def run_bench_cell(spec: CampaignSpec, index: int) -> dict:
    """One seeded repeat of a bench spec: every `bench` and `campaign
    bench` run, serial or sharded, is one of these.

    ``params["workload"] == "namespace"`` routes the cell to the
    metadata workload family (:mod:`repro.workloads.namespace`); the
    default is the paper's §4.3 streaming-read benchmark.
    """
    params = spec.params
    config = _testbed_config(params, index)
    if params.get("workload") == "namespace":
        from ..workloads import run_namespace_once
        result = run_namespace_once(config, *namespace_point(params))
        return {"ops_per_s": result.ops_per_s,
                "errors": result.errors}
    from ..bench.runner import run_nfs_once
    result = run_nfs_once(config, nreaders=params["readers"],
                          scale=params["scale"])
    return {"throughput_mb_s": result.throughput_mb_s}


def chaos_cell(spec: CampaignSpec, index: int):
    """Cell ``index`` of a chaos campaign as ``(config, schedule,
    workload)``: the one setup that every chaos cell and the shrinker
    run."""
    from ..chaos import (ChaosWorkload, ScheduleFuzzer,
                         workload_from_jsonable)
    params = spec.params
    fuzzer = ScheduleFuzzer(params.get("seed", 0),
                            horizon=params.get("horizon", 20.0),
                            max_events=params.get("max_events", 4))
    workload = workload_from_jsonable(params["workload"]) \
        if "workload" in params else ChaosWorkload()
    return _testbed_config(params, index), fuzzer.schedule(index), workload


def run_chaos_cell(spec: CampaignSpec, index: int) -> dict:
    """One fuzzed schedule judged by the oracles; mirrors run_campaign."""
    from ..chaos import run_chaos
    config, schedule, workload = chaos_cell(spec, index)
    result = run_chaos(config, schedule, workload)
    return {"ok": result.ok,
            "failed_oracles": list(result.failed_oracles),
            "fingerprint": result.fingerprint,
            "events": len(schedule.events)}


_CELL_RUNNERS: Dict[str, object] = {
    "bench": run_bench_cell,
    "chaos": run_chaos_cell,
}


def run_spec_cell(spec_data: dict, index: int) -> dict:
    """Execute cell ``index`` of a JSON campaign spec (worker entry).

    Module-level and driven purely by JSON data, so it is picklable and
    produces identical results in any process, on any attempt.
    """
    spec = CampaignSpec.from_jsonable(spec_data)
    return _CELL_RUNNERS[spec.kind](spec, index)
