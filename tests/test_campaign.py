"""Tests for the fleet-scale campaign orchestrator.

The contract under test is the one DESIGN.md §11 states: the *fold*
(per-cell results in index order) is byte-identical however a campaign
was executed — serial, sharded, worker-crashed, timed out and retried,
or orchestrator-killed and resumed — while everything nondeterministic
lives strictly in the coverage accounting.
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.campaign import (CampaignIncomplete, CampaignJournal,
                            CampaignOptions, CampaignSpec, JournalError,
                            atomic_write_text, bench_spec, cells_csv,
                            chaos_spec, complete_results, fold_bench,
                            fold_chaos, fold_json, fold_records,
                            run_bench_cell, run_chaos_cell,
                            run_chaos_campaign, run_sharded,
                            run_spec_campaign, run_spec_cell,
                            write_report)
from repro.campaign.orchestrator import Orchestrator
from repro.campaign.workers import (KILL_CELL_ENV, KILL_FLAG_ENV,
                                    should_inject_kill, worker_main)
from repro.host.testbed import TestbedConfig

# Module-level cell runners: must be picklable for the fork workers.


def square_cell(index):
    return {"value": index * index}


def slow_cell(index):
    if index == 2:
        time.sleep(30.0)
    return {"value": index}


def briefly_slow_cell(index):
    """Done well inside one result poll, and long after a 1 ms timeout."""
    time.sleep(0.02)
    return {"value": index}


def flaky_cell(flag_path, index):
    """Fails cell 1 once (marker file), succeeds on retry."""
    if index == 1 and not os.path.exists(flag_path):
        with open(flag_path, "w") as handle:
            handle.write("tried\n")
        raise RuntimeError("transient failure")
    return {"value": index}


def always_broken_cell(index):
    if index == 1:
        raise RuntimeError("permanently broken")
    return {"value": index}


def _history_hammer(path, writer, count):
    """Append ``count`` records to the shared history store."""
    from repro.diagnose import append_history
    for n in range(count):
        append_history(path, {"writer": writer, "n": n})


def chaos_shaped_broken_cell(index):
    """Chaos-result shape, with cell 1 permanently erroring."""
    if index == 1:
        raise RuntimeError("permanently broken")
    return {"ok": True, "failed_oracles": [],
            "fingerprint": f"fp-{index}", "events": 0}


# ---------------------------------------------------------------------------
# Journal
# ---------------------------------------------------------------------------

class TestJournal:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        journal = CampaignJournal(path)
        journal.create({"fingerprint": "abc"})
        with journal:
            journal.append({"type": "result", "cell": 0, "attempt": 1,
                            "result": {"v": 1}})
            journal.append({"type": "attempt", "cell": 1, "attempt": 1,
                            "status": "crash", "detail": "boom"})
        loaded = CampaignJournal.load(path)
        assert loaded.header["fingerprint"] == "abc"
        assert loaded.header["version"] == 1
        assert len(loaded.records) == 2
        assert loaded.repaired == 0 and loaded.dropped == 0

    def test_atomic_write_leaves_no_tmp(self, tmp_path):
        path = str(tmp_path / "out.txt")
        atomic_write_text(path, "hello\n")
        assert open(path).read() == "hello\n"
        assert not os.path.exists(path + ".tmp")

    def test_torn_tail_is_dropped(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        journal = CampaignJournal(path)
        journal.create({"fingerprint": "abc"})
        with journal:
            journal.append({"type": "result", "cell": 0, "attempt": 1,
                            "result": {"v": 1}})
        with open(path, "a") as handle:
            handle.write('{"type": "result", "cell": 1, "att')
        loaded = CampaignJournal.load(path)
        assert loaded.dropped == 1
        assert len(loaded.records) == 1  # cell 1 simply re-runs

    def test_torn_tail_without_newline_is_dropped(self, tmp_path):
        # Parses as JSON but the newline never hit the disk: still torn.
        path = str(tmp_path / "j.jsonl")
        CampaignJournal(path).create({"fingerprint": "abc"})
        with open(path, "a") as handle:
            handle.write('{"type": "result", "cell": 0}')
        loaded = CampaignJournal.load(path)
        assert loaded.dropped == 1
        assert loaded.records == []

    def test_torn_tail_repaired_from_wal(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        journal = CampaignJournal(path)
        journal.create({"fingerprint": "abc"})
        record = {"type": "result", "cell": 0, "attempt": 1,
                  "result": {"v": 1}}
        # Crash between WAL commit and journal append: WAL exists,
        # journal tail torn.
        atomic_write_text(path + ".wal",
                          json.dumps(record, sort_keys=True) + "\n")
        with open(path, "a") as handle:
            handle.write('{"type": "result", "ce')
        loaded = CampaignJournal.load(path)
        assert loaded.repaired == 1 and loaded.dropped == 0
        assert loaded.records == [record]
        assert not os.path.exists(path + ".wal")

    def test_torn_tail_is_truncated_on_disk(self, tmp_path):
        # The reviewer's crash scenario: load() must heal the file, not
        # just the in-memory view, or a resume session's first append
        # concatenates onto the torn fragment and is lost.
        path = str(tmp_path / "j.jsonl")
        journal = CampaignJournal(path)
        journal.create({"fingerprint": "abc"})
        with journal:
            journal.append({"type": "result", "cell": 0, "attempt": 1,
                            "result": {"v": 0}})
        with open(path, "a") as handle:
            handle.write('{"type": "result", "cell": 1, "att')
        assert CampaignJournal.load(path).dropped == 1
        # Resume session appends two more records, as append() would.
        resumed = CampaignJournal(path)
        with resumed:
            resumed.append({"type": "result", "cell": 1, "attempt": 1,
                            "result": {"v": 1}})
            resumed.append({"type": "result", "cell": 2, "attempt": 1,
                            "result": {"v": 2}})
        loaded = CampaignJournal.load(path)
        assert loaded.dropped == 0 and loaded.repaired == 0
        assert [r["cell"] for r in loaded.records] == [0, 1, 2]

    def test_wal_repair_is_durable_in_journal(self, tmp_path):
        # A record repaired from the WAL must be re-written to the
        # journal before the WAL is removed: a second crash right after
        # load() must not lose the committed result.
        path = str(tmp_path / "j.jsonl")
        CampaignJournal(path).create({"fingerprint": "abc"})
        record = {"type": "result", "cell": 0, "attempt": 1,
                  "result": {"v": 1}}
        atomic_write_text(path + ".wal",
                          json.dumps(record, sort_keys=True) + "\n")
        with open(path, "a") as handle:
            handle.write('{"type": "result", "ce')
        first = CampaignJournal.load(path)
        assert first.repaired == 1
        assert not os.path.exists(path + ".wal")
        # No WAL any more — the journal alone must still carry it.
        second = CampaignJournal.load(path)
        assert second.records == [record]
        assert second.repaired == 0 and second.dropped == 0

    def test_wal_duplicate_of_completed_append_is_ignored(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        journal = CampaignJournal(path)
        journal.create({"fingerprint": "abc"})
        record = {"type": "result", "cell": 0, "attempt": 1,
                  "result": {"v": 1}}
        with journal:
            journal.append(record)
        # Crash between append and WAL removal.
        atomic_write_text(path + ".wal",
                          json.dumps(record, sort_keys=True,
                                     separators=(",", ":")) + "\n")
        loaded = CampaignJournal.load(path)
        assert loaded.records == [record]
        assert loaded.repaired == 0

    def test_mid_file_corruption_is_a_hard_error(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        journal = CampaignJournal(path)
        journal.create({"fingerprint": "abc"})
        with open(path, "a") as handle:
            handle.write("NOT JSON\n")
            handle.write('{"type": "result", "cell": 0}\n')
        with pytest.raises(JournalError, match="corrupt journal record"):
            CampaignJournal.load(path)

    def test_missing_journal_is_an_error(self, tmp_path):
        with pytest.raises(JournalError, match="cannot read journal"):
            CampaignJournal.load(str(tmp_path / "nope.jsonl"))

    def test_headerless_journal_is_an_error(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        with open(path, "w") as handle:
            handle.write('{"type": "result", "cell": 0}\n')
        with pytest.raises(JournalError, match="not a header"):
            CampaignJournal.load(path)

    def test_wrong_version_is_an_error(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        with open(path, "w") as handle:
            handle.write('{"type": "header", "version": 99}\n')
        with pytest.raises(JournalError, match="unsupported journal"):
            CampaignJournal.load(path)

    def test_fold_records_first_result_wins_and_counters(self):
        records = [
            {"type": "attempt", "cell": 0, "attempt": 1,
             "status": "crash", "detail": "x"},
            {"type": "result", "cell": 0, "attempt": 2,
             "result": {"v": "first"}},
            {"type": "result", "cell": 0, "attempt": 3,
             "result": {"v": "late-duplicate"}},
            {"type": "attempt", "cell": 1, "attempt": 1,
             "status": "timeout", "detail": "slow"},
            {"type": "attempt", "cell": 1, "attempt": 2,
             "status": "error", "detail": "boom"},
            {"type": "abandoned", "cell": 1, "attempts": 3,
             "reason": "gave up"},
        ]
        results, attempts, counters = fold_records(records)
        assert results == {0: {"v": "first"}}
        assert attempts == {0: 3, 1: 2}
        assert counters == {"timeouts": 1, "worker_crashes": 1,
                            "cell_errors": 1, "abandoned_seen": 1}


# ---------------------------------------------------------------------------
# Specs and cells
# ---------------------------------------------------------------------------

class TestSpec:
    def test_fingerprint_is_stable_and_discriminating(self):
        a1 = chaos_spec(10, seed=0)
        a2 = chaos_spec(10, seed=0)
        b = chaos_spec(10, seed=1)
        assert a1.fingerprint() == a2.fingerprint()
        assert a1.fingerprint() != b.fingerprint()
        assert a1.fingerprint() != bench_spec(10).fingerprint()

    def test_round_trips_through_json(self):
        spec = bench_spec(5, readers=2, scale=0.05, seed=3)
        again = CampaignSpec.from_jsonable(
            json.loads(json.dumps(spec.to_jsonable())))
        assert again == spec
        assert again.fingerprint() == spec.fingerprint()

    def test_rejects_bad_kind_and_zero_cells(self):
        with pytest.raises(ValueError, match="unknown campaign kind"):
            CampaignSpec(kind="nope", cells=1)
        with pytest.raises(ValueError, match="at least one cell"):
            CampaignSpec(kind="bench", cells=0)
        with pytest.raises(ValueError, match="unsupported campaign spec"):
            CampaignSpec.from_jsonable({"version": 99})

    def test_bench_cell_matches_serial_seed_spacing(self):
        from repro.bench.runner import run_nfs_once
        spec = bench_spec(3, readers=2, scale=0.03, seed=0)
        sharded = run_bench_cell(spec, 2)
        serial = run_nfs_once(TestbedConfig(seed=2000), nreaders=2,
                              scale=0.03)
        assert sharded["throughput_mb_s"] == serial.throughput_mb_s

    def test_chaos_cell_matches_run_chaos(self):
        from repro.chaos import (ChaosWorkload, ScheduleFuzzer,
                                 run_chaos)
        spec = chaos_spec(4, seed=0)
        cell = run_chaos_cell(spec, 1)
        config = TestbedConfig(num_clients=2, seed=1000,
                               mount_verifier_recovery=True)
        direct = run_chaos(config, ScheduleFuzzer(0).schedule(1),
                           ChaosWorkload())
        assert cell["fingerprint"] == direct.fingerprint
        assert cell["ok"] == direct.ok

    def test_run_spec_cell_dispatches_by_kind(self):
        spec = chaos_spec(2, seed=0)
        via_spec = run_spec_cell(spec.to_jsonable(), 0)
        direct = run_chaos_cell(spec, 0)
        assert via_spec == direct


# ---------------------------------------------------------------------------
# Worker loop (in-process: pytest-cov cannot trace forked children)
# ---------------------------------------------------------------------------

class TestWorker:
    def test_worker_main_runs_cells_until_poison_pill(self):
        import queue
        tasks, results = queue.Queue(), queue.Queue()
        tasks.put((3, 1))
        tasks.put((5, 2))
        tasks.put(None)
        worker_main(7, square_cell, tasks, results)
        assert results.get_nowait() == ("ok", 7, 3, 1, {"value": 9}, None)
        assert results.get_nowait() == ("ok", 7, 5, 2, {"value": 25},
                                        None)

    def test_worker_main_reports_errors_with_traceback(self):
        import queue
        tasks, results = queue.Queue(), queue.Queue()
        tasks.put((1, 1))
        tasks.put(None)
        worker_main(0, always_broken_cell, tasks, results)
        status, _, cell, attempt, payload, detail = results.get_nowait()
        assert status == "error" and cell == 1 and attempt == 1
        assert "permanently broken" in payload
        assert "RuntimeError" in detail

    def test_should_inject_kill_fires_exactly_once(self, tmp_path,
                                                   monkeypatch):
        flag = str(tmp_path / "flag")
        monkeypatch.setenv(KILL_CELL_ENV, "4")
        monkeypatch.setenv(KILL_FLAG_ENV, flag)
        assert not should_inject_kill(3)    # wrong cell
        assert should_inject_kill(4)        # fires, creates the flag
        assert os.path.exists(flag)
        assert not should_inject_kill(4)    # flag exists: never again

    def test_should_inject_kill_off_without_env(self, monkeypatch):
        monkeypatch.delenv(KILL_CELL_ENV, raising=False)
        monkeypatch.delenv(KILL_FLAG_ENV, raising=False)
        assert not should_inject_kill(0)


# ---------------------------------------------------------------------------
# Orchestrator
# ---------------------------------------------------------------------------

def _options(**kwargs):
    kwargs.setdefault("workers", 2)
    kwargs.setdefault("cell_timeout", 60.0)
    kwargs.setdefault("retry_backoff", 0.01)
    return CampaignOptions(**kwargs)


class TestOrchestrator:
    def test_options_validate(self):
        with pytest.raises(ValueError):
            CampaignOptions(workers=0)
        with pytest.raises(ValueError):
            CampaignOptions(max_attempts=0)
        with pytest.raises(ValueError):
            CampaignOptions(cell_timeout=0)

    def test_simple_campaign_folds_in_index_order(self, tmp_path):
        outcome = run_sharded(
            square_cell, 6, str(tmp_path / "j.jsonl"),
            {"fingerprint": "sq"}, options=_options())
        assert outcome.complete
        assert outcome.fold() == [{"value": i * i} for i in range(6)]
        assert outcome.coverage["done"] == 6
        assert outcome.coverage["abandoned"] == 0
        assert outcome.coverage["not_run"] == 0

    def test_late_result_purges_queued_retry(self, tmp_path):
        # An "ok" that lands after its worker was timeout-killed must
        # also cancel the retry queued by the timeout, or the resolved
        # cell is pointlessly re-executed.
        from repro.campaign.orchestrator import _Worker

        class _ListQueue:
            def __init__(self):
                self.sent = []

            def put(self, item):
                self.sent.append(item)

        journal = CampaignJournal(str(tmp_path / "j.jsonl"))
        journal.create({"fingerprint": "late"})
        with journal:
            orchestrator = Orchestrator(square_cell, 3, journal,
                                        options=_options())
            orchestrator._pending.append([5.0, 1])  # backoff retry
            orchestrator._record_result(1, 1, {"value": 1}, None, 0.0)
            assert [e[1] for e in orchestrator._pending] == [0, 2]
            # And dispatch never hands out a cell already resolved.
            orchestrator._pending.append([0.0, 1])
            queue = _ListQueue()
            orchestrator._workers[99] = _Worker(99, None, queue)
            orchestrator._dispatch_ready(10.0)
            assert 1 not in [e[1] for e in orchestrator._pending]
            assert [item[0] for item in queue.sent] == [0]

    def test_transient_error_retries_then_succeeds(self, tmp_path):
        import functools
        flag = str(tmp_path / "flaky-flag")
        outcome = run_sharded(
            functools.partial(flaky_cell, flag), 3,
            str(tmp_path / "j.jsonl"), {"fingerprint": "fl"},
            options=_options())
        assert outcome.complete
        assert outcome.fold() == [{"value": i} for i in range(3)]
        assert outcome.coverage["cell_errors"] == 1
        assert outcome.coverage["retried"] == 1
        assert outcome.outcomes[1].attempts == 2

    def test_retry_exhaustion_abandons_and_degrades(self, tmp_path):
        outcome = run_sharded(
            always_broken_cell, 3, str(tmp_path / "j.jsonl"),
            {"fingerprint": "br"},
            options=_options(max_attempts=2))
        assert not outcome.complete
        assert outcome.outcomes[1].status == "abandoned"
        assert "permanently broken" in outcome.outcomes[1].reason
        assert outcome.coverage["abandoned"] == 1
        assert outcome.coverage["done"] == 2
        assert outcome.coverage["cell_errors"] == 2
        # The healthy cells still folded.
        assert outcome.fold()[0] == {"value": 0}
        assert outcome.fold()[1] is None

    def test_timeout_kills_worker_and_retries(self, tmp_path):
        # Cell 2 sleeps 30s against a 1.5s timeout; max_attempts=1 so
        # it abandons instead of looping 30s per retry.
        outcome = run_sharded(
            slow_cell, 4, str(tmp_path / "j.jsonl"),
            {"fingerprint": "sl"},
            options=_options(cell_timeout=1.5, max_attempts=1))
        assert outcome.outcomes[2].status == "abandoned"
        assert "exceeded" in outcome.outcomes[2].reason
        assert outcome.coverage["timed_out"] == 1
        done = [o.index for o in outcome.outcomes if o.status == "done"]
        assert set(done) == {0, 1, 3}

    def test_result_after_its_deadline_is_a_timeout(self, tmp_path):
        # Each result arrives inside one result poll of its dispatch,
        # so only a deadline check on the result itself catches it.
        outcome = run_sharded(
            briefly_slow_cell, 3, str(tmp_path / "j.jsonl"),
            {"fingerprint": "late"},
            options=_options(cell_timeout=0.001, max_attempts=1))
        assert outcome.coverage["timed_out"] == 3
        assert outcome.coverage["done"] == 0
        assert all("exceeded" in o.reason for o in outcome.outcomes)

    def test_worker_kill_injection_recovers(self, tmp_path, monkeypatch):
        monkeypatch.setenv(KILL_CELL_ENV, "2")
        monkeypatch.setenv(KILL_FLAG_ENV, str(tmp_path / "kill-flag"))
        outcome = run_sharded(
            square_cell, 5, str(tmp_path / "j.jsonl"),
            {"fingerprint": "ki"}, options=_options())
        assert outcome.complete
        assert outcome.coverage["worker_crashes"] >= 1
        assert outcome.coverage["abandoned"] == 0
        # The fold is identical to an undisturbed campaign's.
        monkeypatch.delenv(KILL_CELL_ENV)
        clean = run_sharded(
            square_cell, 5, str(tmp_path / "clean.jsonl"),
            {"fingerprint": "ki"}, options=_options())
        assert fold_json(outcome) == fold_json(clean)
        assert cells_csv(outcome) == cells_csv(clean)

    def test_wall_budget_emits_partial_resumable(self, tmp_path):
        journal_path = str(tmp_path / "j.jsonl")
        outcome = run_sharded(
            slow_cell, 4, journal_path, {"fingerprint": "wb"},
            options=_options(workers=1, wall_budget=0.0,
                             cell_timeout=1.0, max_attempts=1))
        assert not outcome.complete
        assert outcome.coverage["not_run"] > 0
        # Resume with a sane budget finishes the fast cells.
        outcome2 = run_sharded(
            slow_cell, 4, journal_path, {"fingerprint": "wb"},
            options=_options(cell_timeout=1.5, max_attempts=1),
            resume=True)
        done = [o.index for o in outcome2.outcomes
                if o.status == "done"]
        assert set(done) == {0, 1, 3}

    def test_in_process_interrupt_leaves_the_rest_pending(self):
        from repro.campaign.orchestrator import run_in_process

        def interrupted_at_two(index):
            if index == 2:
                raise KeyboardInterrupt
            return square_cell(index)

        outcome = run_in_process(interrupted_at_two, 4)
        assert not outcome.complete
        assert [o.status for o in outcome.outcomes] == \
            ["done", "done", "pending", "pending"]
        assert outcome.coverage["not_run"] == 2
        assert outcome.coverage["interrupted"] == 1

    def test_existing_journal_without_resume_is_refused(self, tmp_path):
        journal_path = str(tmp_path / "j.jsonl")
        run_sharded(square_cell, 2, journal_path,
                    {"fingerprint": "x"}, options=_options())
        with pytest.raises(JournalError, match="pass --resume"):
            run_sharded(square_cell, 2, journal_path,
                        {"fingerprint": "x"}, options=_options())

    def test_foreign_journal_is_refused_even_with_resume(self, tmp_path):
        journal_path = str(tmp_path / "j.jsonl")
        run_sharded(square_cell, 2, journal_path,
                    {"fingerprint": "campaign-a"}, options=_options())
        with pytest.raises(JournalError, match="refusing to mix"):
            run_sharded(square_cell, 2, journal_path,
                        {"fingerprint": "campaign-b"},
                        options=_options(), resume=True)

    def test_resume_of_missing_journal_starts_fresh(self, tmp_path):
        outcome = run_sharded(
            square_cell, 3, str(tmp_path / "new.jsonl"),
            {"fingerprint": "fresh"}, options=_options(), resume=True)
        assert outcome.complete

    def test_resume_skips_committed_cells(self, tmp_path):
        journal_path = str(tmp_path / "j.jsonl")
        journal = CampaignJournal(journal_path)
        journal.create({"fingerprint": "pre"})
        with journal:
            journal.append({"type": "result", "cell": 0, "attempt": 1,
                            "result": {"value": 0}})
            journal.append({"type": "result", "cell": 2, "attempt": 1,
                            "result": {"value": 4}})
        outcome = run_sharded(
            square_cell, 4, journal_path, {"fingerprint": "pre"},
            options=_options(), resume=True)
        assert outcome.complete
        assert outcome.fold() == [{"value": i * i} for i in range(4)]
        # Only cells 1 and 3 actually ran this session.
        loaded = CampaignJournal.load(journal_path)
        session_cells = [r["cell"] for r in loaded.records[2:]
                         if r["type"] == "result"]
        assert sorted(session_cells) == [1, 3]


# ---------------------------------------------------------------------------
# Drivers: bench and chaos campaigns end to end
# ---------------------------------------------------------------------------

SMALL = dict(readers=2, scale=0.03)


class TestDrivers:
    def test_bench_campaign_fold_matches_serial_bytes(self, tmp_path):
        from repro.bench.runner import run_nfs_once
        from repro.sim.rand import run_seed
        from repro.stats import summarize
        spec = bench_spec(4, seed=0, **SMALL)
        outcome = run_spec_campaign(spec, str(tmp_path / "j.jsonl"),
                                    options=_options())
        record = fold_bench(spec, outcome.fold())
        serial_list = [
            run_nfs_once(TestbedConfig(seed=run_seed(0, index)),
                         nreaders=2, scale=0.03).throughput_mb_s
            for index in range(4)]
        serial = summarize(serial_list)
        assert json.dumps(record["throughputs_mb_s"]) == \
            json.dumps(serial_list)
        assert record["mean_mb_s"] == serial.mean
        assert record["std_mb_s"] == serial.std
        assert record["runs"] == 4

    def test_complete_results_refuses_partial(self, tmp_path):
        outcome = run_sharded(
            always_broken_cell, 3, str(tmp_path / "j.jsonl"),
            {"fingerprint": "partial"},
            options=_options(max_attempts=1))
        with pytest.raises(CampaignIncomplete) as info:
            complete_results(outcome, "bench campaign")
        assert info.value.outcome is outcome
        assert "cells done" in str(info.value)

    def test_namespace_campaign_record_is_the_bench_record(
            self, tmp_path, capsys):
        from repro.campaign import run_bench_campaign
        from repro.cli import main
        spec = bench_spec(2, workload="namespace", pattern="stat",
                          files=120, tree_depth=1, fanout=4, ops=12,
                          clients=2, seed=0)
        record, _outcome = run_bench_campaign(
            spec, str(tmp_path / "j.jsonl"), options=_options())
        assert main(["bench", "--workload", "namespace", "--runs", "2",
                     "--pattern", "stat", "--files", "120",
                     "--tree-depth", "1", "--fanout", "4", "--ops",
                     "12", "--clients", "2", "--seed", "0",
                     "--json"]) == 0
        bench = json.loads(capsys.readouterr().out)["record"]
        assert record == bench

    def test_chaos_campaign_dedupes_by_fingerprint(self, tmp_path):
        # recovery=False reintroduces the lost-acked-data bug: many
        # cells fail, most with the same fingerprint per schedule.
        spec = chaos_spec(6, recovery=False, seed=0)
        record, outcome = run_chaos_campaign(
            spec, str(tmp_path / "j.jsonl"), options=_options())
        assert outcome.complete
        assert record["runs"] == 6
        if not record["ok"]:
            fingerprints = [f["fingerprint"]
                            for f in record["distinct_failures"]]
            assert len(fingerprints) == len(set(fingerprints))
            assert record["failing_cells"] >= len(fingerprints)
            first = record["distinct_failures"][0]
            assert first["indices"][0] == first["first_index"]

    def test_chaos_campaign_bundles_one_per_fingerprint(self, tmp_path):
        spec = chaos_spec(6, recovery=False, seed=0)
        bundle_dir = str(tmp_path / "bundles")
        record, outcome = run_chaos_campaign(
            spec, str(tmp_path / "j.jsonl"), options=_options(),
            bundle_dir=bundle_dir)
        if record["ok"]:
            pytest.skip("no failures at this seed; dedupe untestable")
        from repro.chaos import replay_bundle
        bundles = sorted(os.listdir(bundle_dir))
        assert len(bundles) == len(record["distinct_failures"])
        for entry in record["distinct_failures"]:
            assert os.path.exists(entry["bundle"])
            assert entry["shrink_runs"] > 0
        # The first bundle replays bit-identically.
        outcome_ = replay_bundle(record["distinct_failures"][0]["bundle"])
        assert outcome_.reproduced

    def test_fold_chaos_tolerates_partial(self, tmp_path):
        spec = chaos_spec(3, seed=0)
        outcome = run_sharded(
            chaos_shaped_broken_cell, 3, str(tmp_path / "j.jsonl"),
            {"fingerprint": spec.fingerprint()},
            options=_options(max_attempts=1))
        record = fold_chaos(spec, outcome)
        assert record["runs"] == 2  # only judged cells count

    @pytest.mark.parametrize("options,journal,where", [
        (CampaignOptions(workers=1), False, "in-process"),
        (CampaignOptions(workers=4), False, "sharded"),
        (CampaignOptions(workers=1), True, "sharded"),
        (CampaignOptions(workers=1, cell_timeout=9.0), False, "sharded"),
        (CampaignOptions(workers=1, max_attempts=1), False, "sharded"),
        (CampaignOptions(workers=1, wall_budget=9.0), False, "sharded"),
    ], ids=["one-job", "four-jobs", "journal", "cell-timeout",
            "max-attempts", "wall-budget"])
    def test_spec_campaign_runs_in_process_only_without_worker_needs(
            self, options, journal, where, tmp_path, monkeypatch):
        from repro.campaign import drivers
        monkeypatch.setattr(drivers, "run_in_process",
                            lambda *args, **kwargs: "in-process")
        monkeypatch.setattr(drivers, "run_sharded",
                            lambda *args, **kwargs: "sharded")
        path = str(tmp_path / "j.jsonl") if journal else None
        spec = chaos_spec(4, seed=0)
        assert run_spec_campaign(spec, path, options=options) == where
        # One cell is one job, however many workers were asked for.
        one_cell = chaos_spec(1, seed=0)
        assert run_spec_campaign(
            one_cell, path, options=CampaignOptions(workers=4)) == \
            ("sharded" if journal else "in-process")

    def test_in_process_outcome_is_the_sharded_outcome(self, tmp_path):
        spec = chaos_spec(3, recovery=False, seed=0)
        events = []
        here = run_spec_campaign(spec, options=CampaignOptions(workers=1),
                                 progress=events.append)
        sharded = run_spec_campaign(spec, str(tmp_path / "j.jsonl"),
                                    options=_options())
        assert fold_json(here) == fold_json(sharded)
        assert cells_csv(here) == cells_csv(sharded)
        assert here.coverage == {**sharded.coverage, "stragglers": 0}
        assert [(e["event"], e["cell"], e["done"]) for e in events] == \
            [("result", index, index + 1) for index in range(3)]

    def test_bench_campaign_streams_into_history(self, tmp_path):
        from repro.diagnose import load_history
        from repro.campaign import run_bench_campaign
        spec = bench_spec(2, seed=0, **SMALL)
        history = str(tmp_path / "history.jsonl")
        record, outcome = run_bench_campaign(
            spec, str(tmp_path / "j.jsonl"), options=_options(),
            history=history)
        stored = load_history(history)
        assert stored == [record]


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

class TestReport:
    def test_write_report_writes_all_four_files(self, tmp_path):
        outcome = run_sharded(
            square_cell, 3, str(tmp_path / "j.jsonl"),
            {"fingerprint": "rep"}, options=_options())
        paths = write_report(str(tmp_path / "report"), outcome,
                             "unit campaign", extra={"verb": "test"})
        for path in paths.values():
            assert os.path.exists(path)
        fold = json.loads(open(paths["fold"]).read())
        assert fold["cells"] == [{"value": i * i} for i in range(3)]
        coverage = json.loads(open(paths["coverage"]).read())
        assert coverage["verb"] == "test"
        html_text = open(paths["html"]).read()
        assert "complete" in html_text
        csv_text = open(paths["cells"]).read()
        assert csv_text.splitlines()[0] == "cell,status,value"

    def test_partial_report_is_flagged(self, tmp_path):
        outcome = run_sharded(
            always_broken_cell, 2, str(tmp_path / "j.jsonl"),
            {"fingerprint": "p"}, options=_options(max_attempts=1))
        html_text = __import__("repro.campaign.report",
                               fromlist=["report_html"]) \
            .report_html(outcome, "partial campaign")
        assert "PARTIAL" in html_text
        assert "abandoned" in html_text


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

class TestCampaignCli:
    def test_campaign_chaos_json(self, tmp_path, capsys):
        from repro.cli import main
        code = main(["chaos", "fuzz", "--budget", "3", "--jobs", "2",
                     "--json"])
        out = capsys.readouterr().out
        assert code in (0, 1)
        payload = json.loads(out)
        assert payload["coverage"]["done"] == 3
        assert payload["record"]["verb"] == "chaos-campaign"

    def test_campaign_bench_json_with_report(self, tmp_path, capsys):
        from repro.cli import main
        report = str(tmp_path / "rep")
        code = main(["bench", "--runs", "2", "--readers", "2",
                     "--scale", "0.03", "--jobs", "2", "--json",
                     "--report", report])
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out)
        assert payload["record"]["runs"] == 2
        assert os.path.exists(payload["report"])
        assert os.path.exists(os.path.join(report, "fold.json"))

    def test_campaign_bench_record_is_the_bench_record(self, tmp_path,
                                                       capsys):
        """`bench` prints one record at one job, at two, and under a
        journal, and the record does not echo how it was run."""
        from repro.cli import main
        point = ["bench", "--runs", "2", "--readers", "2", "--scale",
                 "0.03", "--json"]
        records = set()
        for flags in ([], ["--jobs", "2"],
                      ["--jobs", "2", "--journal",
                       str(tmp_path / "j.jsonl")]):
            assert main(point + flags) == 0
            record = json.loads(capsys.readouterr().out)["record"]
            assert "jobs" not in record
            records.add(json.dumps(record, sort_keys=True))
        assert len(records) == 1

    def test_bench_report_at_one_job(self, tmp_path, capsys,
                                     monkeypatch):
        """`bench --report` at `--jobs 1` runs in this process and
        writes the four report files."""
        from repro.campaign import drivers
        from repro.cli import main

        def no_worker(*args, **kwargs):
            raise AssertionError("--jobs 1 started a worker")

        monkeypatch.setattr(drivers, "run_sharded", no_worker)
        report = tmp_path / "rep"
        assert main(["bench", "--runs", "2", "--readers", "2",
                     "--scale", "0.03", "--json", "--report",
                     str(report)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["report"] == str(report / "report.html")
        assert sorted(os.listdir(report)) == [
            "cells.csv", "coverage.json", "fold.json", "report.html"]
        fold = json.loads((report / "fold.json").read_text())
        assert [cell["throughput_mb_s"] for cell in fold["cells"]] == \
            payload["record"]["throughputs_mb_s"]

    def test_campaign_refuses_journal_reuse(self, tmp_path, capsys):
        from repro.cli import main
        journal = str(tmp_path / "j.jsonl")
        assert main(["chaos", "fuzz", "--budget", "2", "--journal",
                     journal, "--json"]) in (0, 1)
        code = main(["chaos", "fuzz", "--budget", "2", "--journal",
                     journal, "--json"])
        err = capsys.readouterr().err
        assert code == 3
        assert "pass --resume" in err

    def test_campaign_resume_is_idempotent(self, tmp_path, capsys):
        from repro.cli import main
        journal = str(tmp_path / "j.jsonl")
        assert main(["chaos", "fuzz", "--budget", "2", "--journal",
                     journal, "--json"]) in (0, 1)
        first = json.loads(capsys.readouterr().out)
        code = main(["chaos", "fuzz", "--budget", "2", "--journal",
                     journal, "--resume", "--json"])
        second = json.loads(capsys.readouterr().out)
        assert code in (0, 1)
        assert second["record"] == first["record"]

    def test_chaos_fuzz_sharded_matches_serial_verdicts(self, tmp_path,
                                                        capsys):
        """`chaos fuzz` at one job, at two, and under a journal prints
        one record, byte for byte, failures included."""
        from repro.cli import main
        flags = ["--budget", "4", "--seed", "0", "--no-recovery",
                 "--json"]
        records = set()
        for argv in (["chaos", "fuzz", "--jobs", "1"],
                     ["chaos", "fuzz", "--jobs", "2"],
                     ["chaos", "fuzz", "--jobs", "2", "--journal",
                      str(tmp_path / "j.jsonl")]):
            assert main(argv + flags) == 1
            record = json.loads(capsys.readouterr().out)["record"]
            assert record["distinct_failures"]
            records.add(json.dumps(record, sort_keys=True))
        assert len(records) == 1

    def test_chaos_fuzz_report_at_one_job(self, tmp_path, capsys,
                                          monkeypatch):
        """`--report` is honoured at `--jobs 1`, which runs in this
        process, and writes the fold a sharded run writes."""
        from repro.campaign import drivers
        from repro.cli import main
        flags = ["--budget", "2", "--seed", "0", "--json"]
        assert main(["chaos", "fuzz", "--jobs", "2", "--report",
                     str(tmp_path / "sharded")] + flags) == 0

        def no_worker(*args, **kwargs):
            raise AssertionError("--jobs 1 started a worker")

        monkeypatch.setattr(drivers, "run_sharded", no_worker)
        report = tmp_path / "here"
        assert main(["chaos", "fuzz", "--report", str(report)]
                    + flags) == 0
        payload = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert payload["report"] == str(report / "report.html")
        assert sorted(os.listdir(report)) == [
            "cells.csv", "coverage.json", "fold.json", "report.html"]
        for name in ("fold.json", "cells.csv"):
            assert (report / name).read_bytes() == \
                (tmp_path / "sharded" / name).read_bytes()

    def test_campaign_chaos_record_names_its_workload(self, capsys):
        from repro.cli import main
        assert main(["chaos", "fuzz", "--workload", "metadata",
                     "--ack-before-intent", "--budget", "1", "--jobs",
                     "1", "--horizon", "12", "--max-events", "2",
                     "--json"]) in (0, 1)
        record = json.loads(capsys.readouterr().out)["record"]
        assert record["workload"] == "metadata"
        assert record["ack_before_intent"] is True


# ---------------------------------------------------------------------------
# Crash-mid-campaign recovery (subprocess: real SIGKILL of the
# orchestrator itself, then --resume, then byte-compare the fold)
# ---------------------------------------------------------------------------

def _campaign_env():
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    env.pop(KILL_CELL_ENV, None)
    env.pop(KILL_FLAG_ENV, None)
    return env


def _count_results(journal_path):
    try:
        with open(journal_path) as handle:
            return sum(1 for line in handle
                       if '"type":"result"' in line
                       or '"type": "result"' in line)
    except OSError:
        return 0


def _children(pid):
    """Pids of ``pid``'s child processes."""
    with open(f"/proc/{pid}/task/{pid}/children") as handle:
        return [int(child) for child in handle.read().split()]


def _running(pid):
    """True while ``pid`` exists and has not exited (zombies have)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except FileNotFoundError:
        return False
    return state not in ("Z", "X")


class TestOrchestratorCrashRecovery:
    BUDGET = 8

    def _args(self, journal, report, resume=False):
        args = [sys.executable, "-m", "repro", "chaos", "fuzz",
                "--budget", str(self.BUDGET), "--jobs", "2",
                "--journal", journal, "--report", report, "--json"]
        if resume:
            args.append("--resume")
        return args

    def test_sigkilled_orchestrator_resumes_byte_identical(self,
                                                           tmp_path):
        env = _campaign_env()
        ref_report = str(tmp_path / "ref")
        done = subprocess.run(
            self._args(str(tmp_path / "ref.jsonl"), ref_report),
            env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode in (0, 1), done.stderr

        journal = str(tmp_path / "j.jsonl")
        victim = subprocess.Popen(
            self._args(journal, str(tmp_path / "unused")), env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        deadline = time.monotonic() + 240
        while time.monotonic() < deadline:
            if _count_results(journal) >= 2:
                break
            if victim.poll() is not None:
                pytest.fail("campaign finished before it could be "
                            "killed; raise BUDGET")
            time.sleep(0.05)
        else:
            victim.kill()
            pytest.fail("journal never accumulated results")
        workers = _children(victim.pid)
        assert workers, "the orchestrator forked no workers"
        os.kill(victim.pid, signal.SIGKILL)
        victim.wait(timeout=30)
        # Orphaned workers must notice the dead orchestrator and exit.
        deadline = time.monotonic() + 30
        while any(map(_running, workers)) and time.monotonic() < deadline:
            time.sleep(0.1)
        assert not any(map(_running, workers)), \
            "workers outlived their SIGKILLed orchestrator"

        resumed_report = str(tmp_path / "resumed")
        resumed = subprocess.run(
            self._args(journal, resumed_report, resume=True),
            env=env, capture_output=True, text=True, timeout=300)
        assert resumed.returncode in (0, 1), resumed.stderr
        payload = json.loads(resumed.stdout)
        assert payload["coverage"]["abandoned"] == 0
        assert payload["coverage"]["done"] == self.BUDGET

        for name in ("fold.json", "cells.csv"):
            with open(os.path.join(ref_report, name), "rb") as ref, \
                    open(os.path.join(resumed_report, name), "rb") as res:
                assert ref.read() == res.read(), \
                    f"{name} differs after crash + resume"


# ---------------------------------------------------------------------------
# Atomic history-store append (satellite: PR-4 store hardening)
# ---------------------------------------------------------------------------

class TestAtomicHistory:
    def test_append_creates_and_extends(self, tmp_path):
        from repro.diagnose import append_history, load_history
        path = str(tmp_path / "deep" / "history.jsonl")
        append_history(path, {"verb": "bench", "mean_mb_s": 1.0})
        append_history(path, {"verb": "bench", "mean_mb_s": 2.0})
        records = load_history(path)
        assert [r["mean_mb_s"] for r in records] == [1.0, 2.0]
        assert not os.path.exists(path + ".tmp")

    def test_append_repairs_missing_trailing_newline(self, tmp_path):
        from repro.diagnose import append_history, load_history
        path = str(tmp_path / "history.jsonl")
        with open(path, "w") as handle:
            handle.write('{"verb": "bench", "mean_mb_s": 1.0}')  # torn
        append_history(path, {"verb": "bench", "mean_mb_s": 2.0})
        records = load_history(path)
        assert [r["mean_mb_s"] for r in records] == [1.0, 2.0]

    def test_concurrent_appenders_lose_no_records(self, tmp_path):
        # The rename protocol is a read-modify-write; without the
        # sidecar lock two concurrent bench runs can silently drop
        # each other's records.
        import multiprocessing
        from repro.diagnose import load_history
        path = str(tmp_path / "history.jsonl")
        ctx = multiprocessing.get_context("fork")
        processes = [ctx.Process(target=_history_hammer,
                                 args=(path, writer, 10))
                     for writer in range(4)]
        for process in processes:
            process.start()
        for process in processes:
            process.join(timeout=60)
            assert process.exitcode == 0
        records = load_history(path)
        assert len(records) == 40
        for writer in range(4):
            mine = sorted(r["n"] for r in records
                          if r["writer"] == writer)
            assert mine == list(range(10))
