"""Correctness oracles for chaos runs.

An oracle is a *decidable end-to-end property* of one run — not a
statistic.  Four of them, in fixed order:

1. ``liveness`` — every client process and the final verifier ran to
   completion within the generous bound (the schedule horizon plus the
   worst-case retransmission backoff tail).  Hard mounts must always
   get there once the faults clear.
2. ``no_lost_acked_data`` — every block whose durability the protocol
   promised (FILE_SYNC ack, or COMMIT covering it under an unchanged
   write verifier) reads back with exactly the promised token at end of
   run.  This is *the* NFSv3 crash-recovery contract.
3. ``read_your_writes`` — a client re-reading its own just-committed
   blocks sees its own tokens.
4. ``dupreq_idempotency`` — no retransmitted non-idempotent request was
   re-executed within a server boot (the duplicate-request cache did
   its job; across boots the cache is legitimately empty, which is the
   per-boot-epoch scope of the invariant).

When liveness fails, ``no_lost_acked_data`` cannot be decided (the
final readback never ran); it is reported with ``evaluated=False`` and
excluded from ``failed_oracles`` so a liveness bug is not double
counted as data loss.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

#: Canonical oracle order — results, reports, and bundles all use it.
ORACLE_NAMES: Tuple[str, ...] = (
    "liveness", "no_lost_acked_data", "read_your_writes",
    "dupreq_idempotency")

#: Canonical order for the metadata workload's oracles.  A mixed run
#: reports ``ORACLE_NAMES`` followed by these minus the shared
#: ``liveness``.
METADATA_ORACLE_NAMES: Tuple[str, ...] = (
    "liveness", "no_lost_acked_metadata", "namespace_consistency",
    "rename_atomicity", "cross_boot_meta_idempotency")


@dataclass
class OracleResult:
    """One oracle's verdict on one run."""

    name: str
    passed: bool
    evaluated: bool = True
    violations: Tuple[str, ...] = ()

    def to_jsonable(self) -> dict:
        return {"name": self.name, "passed": self.passed,
                "evaluated": self.evaluated,
                "violations": list(self.violations)}


@dataclass
class OracleInputs:
    """Everything the write oracles after liveness need, gathered by
    the engine."""

    #: The journal's durability claims: (file, block) -> token.
    journal_durable: dict = field(default_factory=dict)
    #: End-of-run readback: (file, block) -> token.
    final_reads: dict = field(default_factory=dict)
    #: Read-your-writes violations collected during the run.
    ryw_violations: List[str] = field(default_factory=list)
    #: Sum of RpcServer.duplicate_executions across transports.
    duplicate_executions: int = 0


def liveness_oracle(processes: List[Tuple[str, bool]]) -> OracleResult:
    """The one liveness verdict of a run, over ``(process name,
    finished?)`` for every worker and verifier of every workload."""
    unfinished = tuple(f"{name} did not finish"
                       for name, finished in processes if not finished)
    return OracleResult("liveness", passed=not unfinished,
                        violations=unfinished)


def evaluate_oracles(inputs: OracleInputs,
                     live: bool) -> Tuple[OracleResult, ...]:
    """The write oracles after liveness, in canonical order; ``live``
    is the run's liveness verdict."""
    if live:
        lost = []
        for key in sorted(inputs.journal_durable):
            expected = inputs.journal_durable[key]
            got = inputs.final_reads.get(key)
            if got != expected:
                name, block = key
                lost.append(f"{name}[{block}]: acked token {expected}, "
                            f"read back {got}")
        no_lost = OracleResult("no_lost_acked_data", passed=not lost,
                               violations=tuple(lost))
    else:
        no_lost = OracleResult("no_lost_acked_data", passed=False,
                               evaluated=False)

    ryw = OracleResult("read_your_writes",
                       passed=not inputs.ryw_violations,
                       violations=tuple(inputs.ryw_violations))

    dup = inputs.duplicate_executions
    dupreq = OracleResult(
        "dupreq_idempotency", passed=dup == 0,
        violations=((f"{dup} non-idempotent re-executions",)
                    if dup else ()))
    return (no_lost, ryw, dupreq)


def failed_oracle_names(oracles) -> Tuple[str, ...]:
    """Evaluated-and-failed oracle names, in canonical order."""
    return tuple(o.name for o in oracles
                 if o.evaluated and not o.passed)


# ----------------------------------------------------------------------
# Metadata oracles
# ----------------------------------------------------------------------

@dataclass
class MetadataOracleInputs:
    """Everything the metadata oracles after liveness need, gathered
    by the engine."""

    #: The journal's acknowledged namespace claims: path -> state.
    expected: dict = field(default_factory=dict)
    #: End-of-run stat sweep through a cold cache: path -> state.
    observed: dict = field(default_factory=dict)
    #: Mid-run op failures (lost-acked-metadata showing up early).
    anomalies: List[str] = field(default_factory=list)
    #: Every acknowledged rename, in order: (src, dst).
    renames: List[Tuple[str, str]] = field(default_factory=list)
    #: One :meth:`~..ffs.FsckReport.to_jsonable` dict per reboot.
    recovery_reports: List[dict] = field(default_factory=list)
    #: Server count of acked-then-silently-re-executed metadata ops.
    cross_boot_reexecutions: int = 0


def evaluate_metadata_oracles(inputs: MetadataOracleInputs,
                              live: bool) -> Tuple[OracleResult, ...]:
    """The metadata oracles after liveness, in canonical order;
    ``live`` is the run's liveness verdict.

    ``no_lost_acked_metadata`` and ``rename_atomicity`` need the final
    stat sweep, so — like ``no_lost_acked_data`` — they are undecidable
    (``evaluated=False``) when liveness fails.  The consistency and
    idempotency oracles judge evidence collected during the run and are
    always decided.
    """
    if live:
        lost = list(inputs.anomalies)
        for path in sorted(inputs.expected):
            want = inputs.expected[path]
            got = inputs.observed.get(path)
            if got != want:
                lost.append(f"{path}: acked {want}, observed {got}")
        no_lost = OracleResult("no_lost_acked_metadata",
                               passed=not lost, violations=tuple(lost))

        torn = []
        for src, dst in inputs.renames:
            # Judge only renames still reflected in the final claim;
            # a later op on either name supersedes this pair.
            if inputs.expected.get(src) != "absent" \
                    or inputs.expected.get(dst) != "file":
                continue
            got_src = inputs.observed.get(src)
            got_dst = inputs.observed.get(dst)
            if got_src == "file" and got_dst == "file":
                torn.append(f"{src} -> {dst}: both names present "
                            f"(rename duplicated)")
            elif got_src == "absent" and got_dst == "absent":
                torn.append(f"{src} -> {dst}: neither name present "
                            f"(rename lost the file)")
        atomic = OracleResult("rename_atomicity", passed=not torn,
                              violations=tuple(torn))
    else:
        no_lost = OracleResult("no_lost_acked_metadata", passed=False,
                               evaluated=False)
        atomic = OracleResult("rename_atomicity", passed=False,
                              evaluated=False)

    messes = []
    for report in inputs.recovery_reports:
        epoch = report.get("epoch")
        for line in report.get("undo_failures", ()):
            messes.append(f"boot {epoch}: undo failed: {line}")
        for line in report.get("unhealed", ()):
            messes.append(f"boot {epoch}: unhealed: {line}")
        for counter in ("orphans_reclaimed", "dangling_repaired",
                        "duplicates_dropped", "slot_repairs"):
            count = report.get(counter, 0)
            if count:
                # fsck is the backstop, not the mechanism: recovery
                # itself must leave nothing for it to fix.
                messes.append(f"boot {epoch}: {counter}={count}")
    consistency = OracleResult("namespace_consistency",
                               passed=not messes,
                               violations=tuple(messes))

    redo = inputs.cross_boot_reexecutions
    idem = OracleResult(
        "cross_boot_meta_idempotency", passed=redo == 0,
        violations=((f"{redo} acked metadata ops re-executed across "
                     f"a reboot",) if redo else ()))
    return (no_lost, consistency, atomic, idem)
