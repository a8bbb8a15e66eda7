"""The chaos engine: run one schedule, judge it with the oracles.

:func:`run_chaos` is the deterministic core — a pure function from
``(config, schedule, workload)`` to a :class:`ChaosResult`, including a
SHA-256 fingerprint over the run's canonical JSON.  Two invocations
with equal inputs produce byte-identical fingerprints, which is what
lets a repro bundle assert "this exact failure" rather than "a
failure".

:func:`run_campaign` fans a :class:`~.schedule.ScheduleFuzzer` across a
budget of schedules, giving each run its own derived config seed so the
non-fault randomness (CPU jitter, drive cache) varies across runs while
schedule ``i`` stays pinned to ``(campaign seed, i)``.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from ..host.testbed import TestbedConfig, build_nfs_testbed
from ..sim.rand import derive_seed, run_seed
from .metadata import (MetadataWorkload, MetaOpsJournal, MixedWorkload,
                       metadata_verifier, metadata_worker)
from .oracles import (MetadataOracleInputs, OracleInputs, OracleResult,
                      evaluate_metadata_oracles, evaluate_oracles,
                      failed_oracle_names, liveness_oracle)
from .schedule import ChaosSchedule, ScheduleFuzzer
from .workload import (ChaosJournal, ChaosWorkload, chaos_verifier,
                       chaos_worker)

#: Grace past the schedule horizon before liveness is declared broken:
#: enough for several exponential-backoff retransmission cycles at the
#: 60 s cap after the last fault window closes.
LIVENESS_GRACE = 240.0


@dataclass
class ChaosResult:
    """Everything one chaos run produced."""

    schedule: ChaosSchedule
    workload: ChaosWorkload
    oracles: Tuple[OracleResult, ...]
    counters: Dict[str, int]
    fingerprint: str

    @property
    def failed_oracles(self) -> Tuple[str, ...]:
        return failed_oracle_names(self.oracles)

    @property
    def ok(self) -> bool:
        return not self.failed_oracles

    def to_jsonable(self) -> dict:
        return {"schedule": self.schedule.to_jsonable(),
                "workload": self.workload.to_jsonable(),
                "oracles": [o.to_jsonable() for o in self.oracles],
                "counters": dict(sorted(self.counters.items())),
                "failed_oracles": list(self.failed_oracles),
                "ok": self.ok,
                "fingerprint": self.fingerprint}


def _canonical_fingerprint(payload: dict) -> str:
    blob = json.dumps(payload, sort_keys=True,
                      separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def run_chaos(config: TestbedConfig, schedule: ChaosSchedule,
              workload: Optional[ChaosWorkload] = None) -> ChaosResult:
    """Execute one schedule against one testbed config.

    ``workload`` selects the campaign kind: a :class:`ChaosWorkload`
    (writes), a :class:`MetadataWorkload` (namespace mutations), or a
    :class:`MixedWorkload` (both at once, same clients, same boots).
    The write kind's fingerprint payload is frozen — a version-1 bundle
    replays byte-identically.
    """
    workload = workload or ChaosWorkload()
    is_mixed = isinstance(workload, MixedWorkload)
    write_wl = workload.write if is_mixed else (
        workload if isinstance(workload, ChaosWorkload) else None)
    meta_wl = workload.metadata if is_mixed else (
        workload if isinstance(workload, MetadataWorkload) else None)
    if write_wl is None and meta_wl is None:
        raise TypeError(f"unsupported chaos workload {workload!r}")

    spec = schedule.to_fault_spec()
    run_config = replace(config,
                         faults=spec if spec.any_faults else None)
    testbed = build_nfs_testbed(run_config)
    bs = run_config.rsize

    journal = ChaosJournal()
    final_reads: Dict[Tuple[str, int], int] = {}
    workers = []
    verifiers = []
    if write_wl is not None:
        file_names = [f"chaos{index}"
                      for index in range(write_wl.files)]
        for name in file_names:
            testbed.server.export_file(name, write_wl.file_blocks * bs)
        for index, mount in enumerate(testbed.mounts):
            rng = random.Random(
                derive_seed(run_config.seed, f"chaos-client{index}"))
            process = testbed.sim.spawn(
                chaos_worker(testbed.sim, mount, index,
                             len(testbed.mounts), file_names, write_wl,
                             rng, journal),
                name=f"chaos-worker{index}")
            workers.append(process)
        verifiers.append(testbed.sim.spawn(
            chaos_verifier(testbed.sim, testbed.mounts[0], workers,
                           journal, final_reads),
            name="chaos-verifier"))

    meta_journal = MetaOpsJournal()
    meta_observed: Dict[str, str] = {}
    meta_workers = []
    if meta_wl is not None:
        dir_names = [f"d{index}" for index in range(meta_wl.dirs)]
        for name in dir_names:
            # One seed file per directory: creates the directory and
            # keeps it LOOKUP-able even when every fuzzed file in it
            # has been removed.
            testbed.server.export_file(f"{name}/seed", bs)
        for index, mount in enumerate(testbed.mounts):
            rng = random.Random(
                derive_seed(run_config.seed, f"chaos-meta{index}"))
            process = testbed.sim.spawn(
                metadata_worker(testbed.sim, mount, index, dir_names,
                                meta_wl, rng, meta_journal),
                name=f"chaos-meta{index}")
            meta_workers.append(process)
        verifiers.append(testbed.sim.spawn(
            metadata_verifier(testbed.sim, testbed.mounts[0],
                              meta_workers, meta_journal,
                              meta_observed),
            name="chaos-meta-verifier"))

    testbed.sim.run(until=schedule.horizon + LIVENESS_GRACE)
    for process in workers + meta_workers + verifiers:
        if process.error is not None:
            raise process.error
    processes = [(p.name, p.finished)
                 for p in workers + meta_workers + verifiers]

    mounts = testbed.mounts
    server = testbed.server
    duplicate_executions = sum(s.duplicate_executions
                               for s in testbed.rpc_servers)
    counters: Dict[str, int] = {
        "reboots_observed": sum(m.stats.server_reboots_observed
                                for m in mounts),
        "server_boot_epoch": server.boot_epoch,
        "rpc_retransmits": sum(c.retransmitted
                               for c in testbed.rpc_clients),
        "rpc_timeouts": sum(c.timeouts for c in testbed.rpc_clients),
        "dupreq_hits": sum(s.dupreq_hits for s in testbed.rpc_servers),
        "dupreq_evictions": sum(s.dupreq_evictions
                                for s in testbed.rpc_servers),
        "duplicate_executions": duplicate_executions,
    }

    # One liveness verdict over every process; each family's other
    # oracles follow it, the write family first.
    liveness = liveness_oracle(processes)
    oracles: Tuple[OracleResult, ...] = (liveness,)
    payload = {
        "schedule": schedule.to_jsonable(),
        "workload": workload.to_jsonable(),
    }

    if write_wl is not None:
        inputs = OracleInputs(
            journal_durable=dict(journal.durable),
            final_reads=dict(final_reads),
            ryw_violations=list(journal.ryw_violations),
            duplicate_executions=duplicate_executions)
        oracles += evaluate_oracles(inputs, liveness.passed)
        counters.update({
            "writes": sum(m.stats.writes for m in mounts),
            "stable_writes": sum(m.stats.stable_writes
                                 for m in mounts),
            "commits": sum(m.stats.commits for m in mounts),
            "rpc_writes": sum(m.stats.rpc_writes for m in mounts),
            "verifier_resends": sum(m.stats.verifier_resends
                                    for m in mounts),
            "commit_retries": sum(m.stats.commit_retries
                                  for m in mounts),
        })
        payload["journal"] = {f"{name}:{block}": token
                              for (name, block), token
                              in sorted(journal.durable.items())}
        payload["final_reads"] = {f"{name}:{block}": token
                                  for (name, block), token
                                  in sorted(final_reads.items())}

    if meta_wl is not None:
        recovery = [report.to_jsonable()
                    for report in server.recovery_reports]
        meta_inputs = MetadataOracleInputs(
            expected=dict(meta_journal.expected),
            observed=dict(meta_observed),
            anomalies=list(meta_journal.anomalies),
            renames=list(meta_journal.renames),
            recovery_reports=recovery,
            cross_boot_reexecutions=(
                server.stats.cross_boot_meta_reexecutions))
        oracles += evaluate_metadata_oracles(meta_inputs,
                                             liveness.passed)
        counters.update({
            "creates": sum(m.stats.creates for m in mounts),
            "mkdirs": sum(m.stats.mkdirs for m in mounts),
            "removes": sum(m.stats.removes for m in mounts),
            "renames": sum(m.stats.renames for m in mounts),
            "meta_intents": server.stats.meta_intents,
            "meta_commits": server.stats.meta_commits,
            "meta_replays": server.stats.meta_replays,
            "meta_undone": server.stats.meta_undone,
            "cross_boot_meta_reexecutions": (
                server.stats.cross_boot_meta_reexecutions),
            "recovery_fscks": len(recovery),
        })
        payload["meta_expected"] = dict(
            sorted(meta_journal.expected.items()))
        payload["meta_observed"] = dict(sorted(meta_observed.items()))
        payload["meta_renames"] = [[src, dst] for src, dst
                                   in meta_journal.renames]
        payload["meta_anomalies"] = list(meta_journal.anomalies)
        payload["recovery"] = recovery

    payload["oracles"] = [o.to_jsonable() for o in oracles]
    payload["counters"] = dict(sorted(counters.items()))
    return ChaosResult(schedule=schedule, workload=workload,
                       oracles=oracles, counters=counters,
                       fingerprint=_canonical_fingerprint(payload))


@dataclass
class CampaignRun:
    """One schedule's outcome within a campaign."""

    index: int
    schedule: ChaosSchedule
    result: ChaosResult


def run_campaign(config: TestbedConfig, fuzzer: ScheduleFuzzer,
                 budget: int,
                 workload: Optional[ChaosWorkload] = None,
                 on_result=None) -> List[CampaignRun]:
    """Run ``budget`` fuzzed schedules; returns every run's outcome.

    Run ``i`` uses config seed ``run_seed(seed, i)`` while the schedule
    itself depends only on the fuzzer's own seed and ``i``.
    """
    workload = workload or ChaosWorkload()
    runs: List[CampaignRun] = []
    for index in range(budget):
        schedule = fuzzer.schedule(index)
        run_config = config.with_seed(run_seed(config.seed, index))
        result = run_chaos(run_config, schedule, workload)
        run = CampaignRun(index=index, schedule=schedule, result=result)
        runs.append(run)
        if on_result is not None:
            on_result(run)
    return runs
