"""The fault-tolerant campaign orchestrator.

Shards ``cells`` executions of a pure ``runner(index) -> dict`` across
worker processes and survives every failure mode a fleet run meets:

* **worker crash** — a worker that dies with a cell in flight is
  detected by its exit, the cell is journalled as a crashed attempt and
  re-dispatched to a fresh worker;
* **cell timeout / straggler** — a cell that exceeds its wall-clock
  budget gets its worker killed and the cell retried with exponential
  backoff; a cell merely *slow* (beyond :data:`STRAGGLER_FACTOR` × the
  median completed-cell time) is counted and surfaced but left to
  finish or time out;
* **retry exhaustion** — after ``max_attempts`` failed attempts the
  cell is journalled as abandoned with its reason, and the campaign
  degrades gracefully to a partial result with explicit coverage
  accounting instead of dying;
* **orchestrator death** — every completed cell was already committed
  to the :mod:`journal <.journal>` before anything else happened, so a
  SIGKILLed orchestrator resumes with ``resume=True`` and re-runs only
  the missing cells.

Determinism contract: the runner must be a pure function of the cell
index, so the **fold** — the per-cell results in index order — is
byte-identical however the campaign was executed: serial, sharded,
crashed-and-resumed, or re-run from scratch.  Everything
non-deterministic (attempt counts, crashes, timing) lives strictly in
the coverage accounting, never in the fold.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from statistics import median
from typing import Callable, Dict, List, Optional

from ..obs.metrics import MetricsRegistry
from .journal import CampaignJournal, JournalError, fold_records
from .workers import worker_main

#: Result-queue poll granularity, in wall-clock seconds.
POLL_INTERVAL = 0.05
#: An in-flight cell slower than this multiple of the median
#: completed-cell time is counted as a straggler.
STRAGGLER_FACTOR = 4.0
#: The session's failure counters, each a coverage bucket.
_COUNTERS = ("timeouts", "worker_crashes", "cell_errors", "stragglers",
             "late_results")


@dataclass(frozen=True)
class CampaignOptions:
    """Orchestrator knobs; the defaults suit overnight campaigns."""

    workers: int = 2
    #: Wall-clock seconds one cell may take before its worker is killed.
    cell_timeout: float = 300.0
    #: Total attempts per cell (first try + retries) per session.
    max_attempts: int = 3
    #: Base retry delay; doubles with each failed attempt.
    retry_backoff: float = 0.25
    #: Stop dispatching after this many wall-clock seconds and emit a
    #: partial, resumable result (None = run to completion).
    wall_budget: Optional[float] = None

    def __post_init__(self):
        if self.workers < 1:
            raise ValueError("need at least one worker")
        if self.max_attempts < 1:
            raise ValueError("need at least one attempt per cell")
        if self.cell_timeout <= 0:
            raise ValueError("cell_timeout must be positive")


@dataclass
class CellOutcome:
    """One cell's final disposition within this campaign session."""

    index: int
    status: str                      # "done" | "abandoned" | "pending"
    attempts: int = 0
    result: Optional[dict] = None
    reason: Optional[str] = None


@dataclass
class CampaignOutcome:
    """The orchestrator's answer: fold + coverage, cleanly separated."""

    outcomes: List[CellOutcome]
    coverage: Dict[str, int]
    #: Wall-clock seconds this session spent orchestrating.
    elapsed: float = 0.0

    @property
    def complete(self) -> bool:
        return all(o.status == "done" for o in self.outcomes)

    def fold(self) -> List[Optional[dict]]:
        """Per-cell results in index order (None where not done)."""
        return [o.result for o in self.outcomes]


class _Worker:
    """Orchestrator-side view of one worker process."""

    __slots__ = ("id", "process", "task_queue", "cell", "attempt",
                 "deadline", "started", "straggling")

    def __init__(self, worker_id, process, task_queue):
        self.id = worker_id
        self.process = process
        self.task_queue = task_queue
        self.cell: Optional[int] = None
        self.attempt = 0
        self.deadline = 0.0
        self.started = 0.0
        self.straggling = False

    @property
    def idle(self) -> bool:
        return self.cell is None


class Orchestrator:
    """Drives one campaign session over a journal."""

    def __init__(self, runner: Callable[[int], dict], cells: int,
                 journal: CampaignJournal,
                 options: Optional[CampaignOptions] = None,
                 progress: Optional[Callable[[dict], None]] = None,
                 prior_results: Optional[Dict[int, dict]] = None,
                 prior_attempts: Optional[Dict[int, int]] = None,
                 prior_counters: Optional[Dict[str, int]] = None):
        import multiprocessing
        try:
            self._mp = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX fallback
            self._mp = multiprocessing.get_context()
        self.runner = runner
        self.cells = cells
        self.journal = journal
        self.options = options or CampaignOptions()
        self.progress = progress or (lambda event: None)
        self.results: Dict[int, dict] = dict(prior_results or {})
        #: Attempts the journal already recorded (prior sessions).
        self.prior_attempts: Dict[int, int] = dict(prior_attempts or {})
        self.session_attempts: Dict[int, int] = {}
        self.abandoned: Dict[int, str] = {}
        self.counters: Dict[str, int] = dict.fromkeys(_COUNTERS, 0)
        for key, value in (prior_counters or {}).items():
            if key in self.counters:
                self.counters[key] += value
        #: (ready_at, cell) dispatch plan; cells run in index order
        #: except where backoff delays a retry.
        self._pending: List[List[float]] = [
            [0.0, index] for index in range(cells)
            if index not in self.results]
        self._workers: Dict[int, _Worker] = {}
        self._next_worker_id = 0
        self._result_queue = self._mp.Queue()
        self._durations: List[float] = []
        self.registry = MetricsRegistry()
        self._register_gauges()

    # -- gauges ------------------------------------------------------------

    def _register_gauges(self) -> None:
        """Campaign health as pull-gauges, same idiom as the testbeds."""
        registry = self.registry
        registry.gauge("campaign.cells_total", lambda: float(self.cells))
        registry.gauge("campaign.cells_done",
                       lambda: float(len(self.results)))
        registry.gauge("campaign.cells_pending",
                       lambda: float(len(self._pending)))
        registry.gauge("campaign.cells_in_flight",
                       lambda: float(sum(1 for w in self._workers.values()
                                         if not w.idle)))
        registry.gauge("campaign.cells_abandoned",
                       lambda: float(len(self.abandoned)))
        registry.gauge("campaign.workers_alive",
                       lambda: float(sum(
                           1 for w in self._workers.values()
                           if w.process.is_alive())))
        for name in _COUNTERS:
            registry.gauge(f"campaign.{name}",
                           lambda key=name: float(self.counters[key]))

    # -- workers -----------------------------------------------------------

    def _spawn_worker(self) -> _Worker:
        worker_id = self._next_worker_id
        self._next_worker_id += 1
        task_queue = self._mp.Queue()
        process = self._mp.Process(
            target=worker_main,
            args=(worker_id, self.runner, task_queue, self._result_queue),
            daemon=True, name=f"campaign-worker{worker_id}")
        process.start()
        worker = _Worker(worker_id, process, task_queue)
        self._workers[worker_id] = worker
        return worker

    def _retire_worker(self, worker: _Worker, kill: bool = False) -> None:
        if kill and worker.process.is_alive():
            worker.process.kill()
        else:
            try:
                worker.task_queue.put_nowait(None)
            except Exception:  # pragma: no cover - queue already broken
                worker.process.kill()
        worker.process.join(timeout=5.0)
        if worker.process.is_alive():  # pragma: no cover - stuck worker
            worker.process.kill()
            worker.process.join(timeout=5.0)
        worker.task_queue.close()
        del self._workers[worker.id]

    # -- scheduling --------------------------------------------------------

    def _total_attempts(self, cell: int) -> int:
        return (self.prior_attempts.get(cell, 0)
                + self.session_attempts.get(cell, 0))

    def _dispatch_ready(self, now: float) -> None:
        idle = [w for w in self._workers.values() if w.idle]
        if not idle:
            return
        # A late "ok" from a killed worker may have resolved a cell
        # whose retry is still queued; dispatching it would re-run
        # already-committed work.
        self._pending = [entry for entry in self._pending
                         if entry[1] not in self.results]
        self._pending.sort()
        for worker in idle:
            picked = None
            for entry in self._pending:
                if entry[0] <= now:
                    picked = entry
                    break
            if picked is None:
                return
            self._pending.remove(picked)
            cell = picked[1]
            self.session_attempts[cell] = \
                self.session_attempts.get(cell, 0) + 1
            worker.cell = cell
            worker.attempt = self._total_attempts(cell)
            worker.started = now
            worker.deadline = now + self.options.cell_timeout
            worker.straggling = False
            worker.task_queue.put((cell, worker.attempt))

    def _fail_attempt(self, worker: _Worker, status: str,
                      detail: str, now: float) -> None:
        """Journal a failed attempt; retry with backoff or abandon."""
        cell, attempt = worker.cell, worker.attempt
        worker.cell = None
        self.journal.append({"type": "attempt", "cell": cell,
                             "attempt": attempt, "status": status,
                             "detail": detail})
        counter = {"timeout": "timeouts", "crash": "worker_crashes",
                   "error": "cell_errors"}[status]
        self.counters[counter] += 1
        self.progress({"event": status, "cell": cell,
                       "attempt": attempt, "detail": detail})
        if self.session_attempts.get(cell, 0) >= self.options.max_attempts:
            reason = f"{status} after {attempt} attempt(s): {detail}"
            self.abandoned[cell] = reason
            self.journal.append({"type": "abandoned", "cell": cell,
                                 "attempts": attempt, "reason": reason})
            self.progress({"event": "abandoned", "cell": cell,
                           "reason": reason})
        else:
            backoff = (self.options.retry_backoff
                       * 2 ** (self.session_attempts[cell] - 1))
            self._pending.append([now + backoff, cell])

    def _record_result(self, cell: int, attempt: int, result: dict,
                       worker: Optional[_Worker], now: float) -> None:
        if cell in self.results:
            # A retry raced its predecessor; results are deterministic,
            # so the duplicate is dropped, not compared.
            self.counters["late_results"] += 1
            return
        self.results[cell] = result
        self.journal.append({"type": "result", "cell": cell,
                             "attempt": attempt, "result": result})
        self.abandoned.pop(cell, None)
        # Drop any queued retry of this cell (e.g. its worker was
        # timeout-killed but the result arrived anyway).
        self._pending = [entry for entry in self._pending
                         if entry[1] != cell]
        if worker is not None:
            self._durations.append(now - worker.started)
        self.progress({"event": "result", "cell": cell,
                       "attempt": attempt, "result": result,
                       "done": len(self.results), "total": self.cells})

    def _drain_results(self, now: float) -> None:
        import queue as queue_module
        while True:
            try:
                message = self._result_queue.get(
                    timeout=POLL_INTERVAL)
            except queue_module.Empty:
                return
            status, worker_id, cell, attempt, payload, detail = message
            worker = self._workers.get(worker_id)
            if worker is not None and worker.cell == cell:
                worker.cell = None
            else:
                worker = None  # late message from a replaced worker
            if status == "ok":
                self._record_result(cell, attempt, payload, worker, now)
            else:
                if worker is None:
                    self.counters["late_results"] += 1
                    continue
                worker.cell = cell  # _fail_attempt clears it
                worker.attempt = attempt
                self._fail_attempt(worker, "error",
                                   f"{payload}", now)
            if not self._pending and all(w.idle
                                         for w in self._workers.values()):
                return

    def _check_workers(self, now: float) -> None:
        for worker in list(self._workers.values()):
            if not worker.process.is_alive():
                exitcode = worker.process.exitcode
                had_cell = not worker.idle
                if had_cell:
                    self._fail_attempt(
                        worker, "crash",
                        f"worker exited with code {exitcode}", now)
                self._retire_worker(worker, kill=True)
                continue
            if worker.idle:
                continue
            if now >= worker.deadline:
                self._fail_attempt(
                    worker, "timeout",
                    f"cell exceeded {self.options.cell_timeout:.1f}s",
                    now)
                self._retire_worker(worker, kill=True)
                continue
            self._check_straggler(worker, now)

    def _check_straggler(self, worker: _Worker, now: float) -> None:
        if worker.straggling or len(self._durations) < 3:
            return
        typical = median(self._durations)
        if typical <= 0:
            return
        if now - worker.started > STRAGGLER_FACTOR * typical:
            worker.straggling = True
            self.counters["stragglers"] += 1
            self.progress({"event": "straggler", "cell": worker.cell,
                           "elapsed": now - worker.started,
                           "median": typical})

    # -- the session -------------------------------------------------------

    def run(self) -> CampaignOutcome:
        start = time.monotonic()
        interrupted = False
        try:
            while self._pending or any(not w.idle
                                       for w in self._workers.values()):
                now = time.monotonic()
                if (self.options.wall_budget is not None
                        and now - start > self.options.wall_budget):
                    self.progress({"event": "wall_budget",
                                   "elapsed": now - start})
                    break
                while (len(self._workers) < self.options.workers
                       and self._pending):
                    self._spawn_worker()
                self._dispatch_ready(now)
                self._drain_results(now)
                self._check_workers(time.monotonic())
        except KeyboardInterrupt:
            interrupted = True
        finally:
            for worker in list(self._workers.values()):
                self._retire_worker(worker, kill=True)
            self._result_queue.close()
            self._result_queue.join_thread()
        return self._outcome(time.monotonic() - start, interrupted)

    def _outcome(self, elapsed: float,
                 interrupted: bool) -> CampaignOutcome:
        outcomes: List[CellOutcome] = []
        for index in range(self.cells):
            attempts = self._total_attempts(index)
            if index in self.results:
                outcomes.append(CellOutcome(
                    index=index, status="done", attempts=attempts,
                    result=self.results[index]))
            elif index in self.abandoned:
                outcomes.append(CellOutcome(
                    index=index, status="abandoned", attempts=attempts,
                    reason=self.abandoned[index]))
            else:
                reason = ("interrupted" if interrupted
                          else "wall budget exhausted")
                outcomes.append(CellOutcome(
                    index=index, status="pending", attempts=attempts,
                    reason=reason))
        coverage = coverage_accounting(outcomes, self.counters)
        if interrupted:
            coverage["interrupted"] = 1
        return CampaignOutcome(outcomes=outcomes, coverage=coverage,
                               elapsed=elapsed)


def coverage_accounting(outcomes: List[CellOutcome],
                        counters: Dict[str, int]) -> Dict[str, int]:
    """Explicit accounting: every cell is in exactly one bucket;
    ``counters`` are the session's, keyed by :data:`_COUNTERS`."""
    done = sum(1 for o in outcomes if o.status == "done")
    abandoned = sum(1 for o in outcomes if o.status == "abandoned")
    pending = sum(1 for o in outcomes if o.status == "pending")
    retried = sum(1 for o in outcomes if o.attempts > 1)
    return {
        "cells": len(outcomes),
        "done": done,
        "retried": retried,
        "timed_out": counters["timeouts"],
        "abandoned": abandoned,
        "not_run": pending,
        "worker_crashes": counters["worker_crashes"],
        "cell_errors": counters["cell_errors"],
        "stragglers": counters["stragglers"],
        "late_results": counters["late_results"],
        "attempts": sum(o.attempts for o in outcomes),
    }


def run_in_process(runner: Callable[[int], dict], cells: int,
                   progress: Optional[Callable[[dict], None]] = None
                   ) -> CampaignOutcome:
    """Every cell in this process, in index order, with no journal:
    the same fold, ``result`` events and coverage accounting as a
    sharded session in which nothing failed.  An interrupt leaves the
    rest pending, as it does the orchestrator; a cell that raises ends
    the session, and timeouts, retries and budgets need
    :func:`run_sharded`.
    """
    progress = progress or (lambda event: None)
    start = time.monotonic()
    outcomes: List[CellOutcome] = []
    try:
        for index in range(cells):
            result = runner(index)
            outcomes.append(CellOutcome(index=index, status="done",
                                        attempts=1, result=result))
            progress({"event": "result", "cell": index, "attempt": 1,
                      "result": result, "done": index + 1,
                      "total": cells})
    except KeyboardInterrupt:
        outcomes += [CellOutcome(index=index, status="pending",
                                 reason="interrupted")
                     for index in range(len(outcomes), cells)]
    coverage = coverage_accounting(outcomes, dict.fromkeys(_COUNTERS, 0))
    if coverage["not_run"]:
        coverage["interrupted"] = 1
    return CampaignOutcome(outcomes=outcomes, coverage=coverage,
                           elapsed=time.monotonic() - start)


def run_sharded(runner: Callable[[int], dict], cells: int,
                journal_path: str, header: dict,
                options: Optional[CampaignOptions] = None,
                resume: bool = False,
                progress: Optional[Callable[[dict], None]] = None
                ) -> CampaignOutcome:
    """One campaign session over ``journal_path``; the library entry.

    ``header`` must carry a ``fingerprint`` identifying the campaign;
    ``resume=True`` loads the journal, verifies the fingerprint, and
    re-runs only cells without a committed result.  Without
    ``resume=True`` an existing journal is always refused — even one
    for the same campaign — so a stale ``--journal`` path can never be
    silently continued; the caller must say ``--resume`` explicitly.
    Resuming a finished campaign is a no-op that re-emits its result,
    which is what makes ``--resume`` idempotent.
    """
    import os
    prior_results: Dict[int, dict] = {}
    prior_attempts: Dict[int, int] = {}
    prior_counters: Dict[str, int] = {}
    exists = os.path.exists(journal_path)
    if exists:
        loaded = CampaignJournal.load(journal_path)
        if loaded.header.get("fingerprint") != header.get("fingerprint"):
            raise JournalError(
                f"{journal_path}: journal belongs to campaign "
                f"{loaded.header.get('fingerprint', '?')[:12]}..., not "
                f"{header.get('fingerprint', '?')[:12]}...; refusing to "
                f"mix campaigns (use a fresh --journal path)")
        if not resume:
            raise JournalError(
                f"{journal_path}: journal already exists for this "
                f"campaign; pass --resume to continue it")
        prior_results, prior_attempts, prior_counters = \
            fold_records(loaded.records)
    elif resume and not exists:
        # Nothing to resume is not an error: first run of a cron job.
        pass
    journal = CampaignJournal(journal_path)
    if not exists:
        journal.create(dict(header))
    with journal:
        orchestrator = Orchestrator(
            runner, cells, journal, options=options, progress=progress,
            prior_results=prior_results, prior_attempts=prior_attempts,
            prior_counters=prior_counters)
        return orchestrator.run()
