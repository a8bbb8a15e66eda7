"""The benchmark's four workloads, driven through the public ``repro`` API.

Every workload is single-process and closed-loop: each simulated client
issues its next operation only when the previous one completed, and no
worker pool is used.  A workload makes its inputs from the seed
(:meth:`prepare`), runs one batch of operations over them (:meth:`run`),
and checks the batch's simulated output before it returns; a failed
check raises :class:`GateFailure`.  The batch's canonical simulated
result is hashed into :attr:`Batch.digest`, so repeats, traced runs and
later commits can be compared bit for bit.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Dict

from repro.chaos import MixedWorkload, ScheduleFuzzer, run_campaign
from repro.diagnose import build_inputs, diagnose, explain_slowest
from repro.host.testbed import TestbedConfig
from repro.obs import observe
from repro.replay import capture_nfs_run, multiplex_trace, replay_trace
from repro.workloads import (NamespaceTreeSpec, NamespaceWorkload,
                             run_namespace_once)


class GateFailure(Exception):
    """A workload's simulated output failed its correctness check."""


@dataclass
class Batch:
    """One batch's outcome: op counts and its simulated result."""

    ops: int
    attempted: int
    failed: int
    #: The canonical simulated result the digest is taken over.
    payload: object
    #: Exact counts only this workload produces (spans, provenance).
    counts: Dict[str, int] = field(default_factory=dict)

    @property
    def digest(self) -> str:
        """SHA-256 over the payload's canonical JSON."""
        blob = json.dumps(self.payload, sort_keys=True,
                          separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


class Phases:
    """Host seconds spent in the named phases of one batch."""

    def __init__(self):
        self.seconds: Dict[str, float] = {}

    @contextmanager
    def time(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.seconds[name] = time.perf_counter() - start


def _replay_inputs(seed: int, scale: float, clients: int):
    """Capture the §4.3 run (2 readers, 2 UDP clients) and multiplex it.

    The target is the paper's improved server: TCP, cursor read-ahead,
    the enlarged nfsheur table.
    """
    trace = capture_nfs_run(TestbedConfig(num_clients=2, seed=seed),
                            nreaders=2, scale=scale)
    trace = multiplex_trace(trace, clients, seed=seed)
    target = replace(TestbedConfig(seed=seed), transport="tcp",
                     server_heuristic="cursor", nfsheur="improved")
    return trace, target


def _check_replay(result) -> None:
    if result.errors or result.ops_completed != result.offered_ops:
        raise GateFailure(
            f"replay completed {result.ops_completed} of "
            f"{result.offered_ops} offered ops with {result.errors} errors")


class ReplayRead:
    """Bulk 64 KB READs: the sim/net/host plumbing does most of the work."""

    name = "replay-read"

    def __init__(self, scale: float = 0.125, clients: int = 8):
        self.scale = scale
        self.clients = clients

    def prepare(self, seed: int):
        return _replay_inputs(seed, self.scale, self.clients)

    def run(self, inputs, phases: Phases, workdir: str) -> Batch:
        trace, target = inputs
        result = replay_trace(trace, target)
        _check_replay(result)
        return Batch(ops=result.ops_completed, attempted=result.offered_ops,
                     failed=result.errors, payload=result.summary())


class NsEdit:
    """The editor save dance on a nested tree: metadata, writes and reads.

    One client: with two, edits race on shared names and a share of them
    fail with ESTALE by design.
    """

    name = "ns-edit"

    def __init__(self, files: int = 10_000, depth: int = 2,
                 fanout: int = 10, ops: int = 2_000):
        self.tree = NamespaceTreeSpec(files=files, depth=depth,
                                      fanout=fanout)
        self.workload = NamespaceWorkload(pattern="edit", ops=ops)

    def prepare(self, seed: int):
        return TestbedConfig(num_clients=1, seed=seed)

    def run(self, config, phases: Phases, workdir: str) -> Batch:
        result = run_namespace_once(config, self.tree, self.workload)
        server = result.server_stats
        wanted = self.workload.ops
        if result.errors or not (result.ops == server["creates"]
                                 == server["renames"] == wanted):
            raise GateFailure(
                f"{result.ops} of {wanted} edits with {result.errors} "
                f"errors, {server['creates']} creates, "
                f"{server['renames']} renames")
        return Batch(ops=result.ops, attempted=wanted,
                     failed=result.errors, payload=result.summary())


class ChaosMixed:
    """Fuzzed fault schedules over writes and metadata, judged by oracles.

    One op is one judged schedule; each builds a fresh testbed, so the
    set-up cost shows here.
    """

    name = "chaos-mixed"

    def __init__(self, budget: int = 40, clients: int = 2):
        self.budget = budget
        self.clients = clients

    def prepare(self, seed: int):
        # The `chaos fuzz` defaults: UDP, 20 s horizon, up to 4 faults.
        return (TestbedConfig(num_clients=self.clients, seed=seed),
                ScheduleFuzzer(seed, horizon=20.0, max_events=4))

    def run(self, inputs, phases: Phases, workdir: str) -> Batch:
        config, fuzzer = inputs
        runs = run_campaign(config, fuzzer, self.budget,
                            workload=MixedWorkload())
        failed = [f"{run.index}:{','.join(run.result.failed_oracles)}"
                  for run in runs if not run.result.ok]
        if failed or len(runs) != self.budget:
            raise GateFailure(f"{len(runs)} schedules run, failed oracles "
                              f"{' '.join(failed) or 'none'}")
        return Batch(ops=len(runs), attempted=self.budget, failed=0,
                     payload=[run.result.fingerprint for run in runs])


class ReplayDiagnose:
    """A replay under full observation, exported, reloaded and diagnosed.

    The only workload in which ``repro.obs`` records and
    ``repro.diagnose`` runs.  One op is one traced and diagnosed op.
    """

    name = "replay-diagnose"

    def __init__(self, scale: float = 0.0625, clients: int = 4,
                 slowest: int = 10):
        self.scale = scale
        self.clients = clients
        self.slowest = slowest

    def prepare(self, seed: int):
        return _replay_inputs(seed, self.scale, self.clients)

    def run(self, inputs, phases: Phases, workdir: str) -> Batch:
        trace, target = inputs
        with observe(trace=True, metrics=True, provenance=True) as session:
            result = replay_trace(trace, target)
        _check_replay(result)
        paths = {kind: os.path.join(workdir, f"session.{kind}")
                 for kind in ("trace", "metrics", "provenance")}
        with phases.time("obs.export_s"):
            for kind, text in (("trace", session.trace_json()),
                               ("metrics", session.metrics_json()),
                               ("provenance", session.provenance_jsonl())):
                with open(paths[kind], "w") as handle:
                    handle.write(text)
        with phases.time("diagnose.load_s"):
            loaded = build_inputs(trace_path=paths["trace"],
                                  metrics_path=paths["metrics"],
                                  provenance_path=paths["provenance"])
        with phases.time("diagnose.attribute_s"):
            report = diagnose(loaded)
        with phases.time("diagnose.explain_s"):
            chains = explain_slowest(loaded.runs, self.slowest,
                                     loaded.provenance)
        if len(chains) != self.slowest:
            raise GateFailure(f"explained {len(chains)} of the "
                              f"{self.slowest} slowest ops")
        for chain in chains:
            # The hops must tile the op's interval exactly: shared float
            # boundaries, so their durations sum to the op's latency.
            edges = [chain.start]
            for hop in chain.hops:
                if hop.start != edges[-1]:
                    break
                edges.append(hop.end)
            if edges[-1] != chain.end or len(edges) != len(chain.hops) + 1:
                raise GateFailure(f"op #{chain.op_id}: hops do not sum to "
                                  f"its {chain.duration:.9f} s latency")
        return Batch(
            ops=result.ops_completed, attempted=result.offered_ops,
            failed=result.errors,
            payload={"replay": result.summary(),
                     "report": json.loads(report.to_json()),
                     "chains": [chain.to_jsonable() for chain in chains]},
            counts={"obs.spans": len(session.spans),
                    "obs.prov_records": len(session.prov_records)})


#: The workloads by name, at the sizes the benchmark runs them.
WORKLOADS = {workload.name: workload for workload in (
    ReplayRead(), NsEdit(), ChaosMixed(), ReplayDiagnose())}
