"""Tests for the chaos engine: fuzzer, oracles, shrinker, bundles."""

import json

import pytest

from repro.chaos import (ChaosSchedule, ChaosWorkload, FaultEvent,
                         ORACLE_NAMES, OracleInputs, ScheduleFuzzer,
                         evaluate_oracles, failed_oracle_names,
                         liveness_oracle, read_bundle, replay_bundle, run_campaign,
                         run_chaos, shrink, write_bundle)
from repro.host.testbed import TestbedConfig

#: A crash late enough in the write phase that blocks acknowledged
#: before it are (with seed 7) never rewritten afterwards — the
#: schedule that separates a recovering client from a trusting one.
LATE_CRASH = ChaosSchedule(events=(FaultEvent("crash", 6.0, 1.5),))


def _config(recovery: bool = True, **kwargs) -> TestbedConfig:
    kwargs.setdefault("transport", "udp")
    kwargs.setdefault("num_clients", 2)
    kwargs.setdefault("seed", 7)
    return TestbedConfig(mount_verifier_recovery=recovery, **kwargs)


# ---------------------------------------------------------------------------
# Schedules and the fuzzer
# ---------------------------------------------------------------------------

class TestSchedules:
    def test_event_validation(self):
        with pytest.raises(ValueError):
            FaultEvent("meteor", 1.0, 1.0)
        with pytest.raises(ValueError):
            FaultEvent("crash", -1.0, 1.0)
        with pytest.raises(ValueError):
            FaultEvent("crash", 1.0, 0.0)

    def test_fuzzer_is_deterministic_per_index(self):
        a = ScheduleFuzzer(42).schedule(3)
        b = ScheduleFuzzer(42).schedule(3)
        assert a == b
        assert ScheduleFuzzer(42).schedule(4) != a
        assert ScheduleFuzzer(43).schedule(3) != a

    def test_fuzzer_index_independent_of_budget(self):
        fuzzer = ScheduleFuzzer(0)
        from_iter = list(fuzzer.schedules(5))
        assert from_iter[4] == ScheduleFuzzer(0).schedule(4)

    def test_json_round_trip_is_exact(self):
        for index in range(10):
            schedule = ScheduleFuzzer(9, max_events=5).schedule(index)
            blob = json.dumps(schedule.to_jsonable())
            assert ChaosSchedule.from_jsonable(
                json.loads(blob)) == schedule

    def test_to_fault_spec_mapping(self):
        schedule = ChaosSchedule(events=(
            FaultEvent("crash", 2.0, 1.0),
            FaultEvent("stall", 4.0, 0.5),
            FaultEvent("partition", 5.0, 2.0),
            FaultEvent("loss_burst", 8.0, 3.0, rate=0.4),
            FaultEvent("disk_error", 1.0, 4.0, rate=0.005),
        ))
        spec = schedule.to_fault_spec()
        assert spec.server.crash_times == (2.0,)
        assert spec.server.restart_delay == 1.0
        assert spec.server.stall_times == (4.0,)
        assert spec.network.partitions == ((5.0, 2.0),)
        assert spec.network.burst_windows == ((8.0, 3.0, 0.4),)
        assert spec.disk.media_error_rate == 0.005

    def test_empty_schedule_compiles_to_clean_spec(self):
        assert not ChaosSchedule().to_fault_spec().any_faults


# ---------------------------------------------------------------------------
# Oracles (unit level)
# ---------------------------------------------------------------------------

class TestOracles:
    def test_liveness_failure_undecides_data_oracle(self):
        liveness = liveness_oracle([("worker0", False)])
        inputs = OracleInputs(journal_durable={("f", 0): 1},
                              final_reads={})
        oracles = (liveness,) + evaluate_oracles(inputs, liveness.passed)
        by_name = {o.name: o for o in oracles}
        assert not by_name["liveness"].passed
        assert not by_name["no_lost_acked_data"].evaluated
        assert failed_oracle_names(oracles) == ("liveness",)

    def test_lost_data_and_duplicates_reported_in_order(self):
        liveness = liveness_oracle([("worker0", True)])
        inputs = OracleInputs(
            journal_durable={("f", 0): 2}, final_reads={("f", 0): 1},
            ryw_violations=["stale"], duplicate_executions=3)
        names = failed_oracle_names(
            (liveness,) + evaluate_oracles(inputs, liveness.passed))
        assert names == ("no_lost_acked_data", "read_your_writes",
                         "dupreq_idempotency")
        assert tuple(n for n in ORACLE_NAMES if n in names) == names


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------

class TestEngine:
    def test_clean_run_passes_all_oracles(self):
        result = run_chaos(_config(), ChaosSchedule())
        assert result.ok
        assert all(o.evaluated and o.passed for o in result.oracles)
        assert result.counters["writes"] > 0
        assert result.counters["commits"] > 0
        assert result.counters["stable_writes"] > 0

    def test_crash_recovery_keeps_oracles_green(self):
        result = run_chaos(_config(), LATE_CRASH)
        assert result.ok
        assert result.counters["server_boot_epoch"] == 1
        assert result.counters["verifier_resends"] > 0

    def test_without_recovery_acked_data_is_lost(self):
        result = run_chaos(_config(recovery=False), LATE_CRASH)
        assert "no_lost_acked_data" in result.failed_oracles
        assert result.counters["verifier_resends"] == 0

    def test_fingerprint_is_deterministic(self):
        a = run_chaos(_config(), LATE_CRASH)
        b = run_chaos(_config(), LATE_CRASH)
        assert a.fingerprint == b.fingerprint
        assert json.dumps(a.to_jsonable(), sort_keys=True) == \
            json.dumps(b.to_jsonable(), sort_keys=True)

    def test_fingerprint_depends_on_schedule(self):
        a = run_chaos(_config(), ChaosSchedule())
        b = run_chaos(_config(), LATE_CRASH)
        assert a.fingerprint != b.fingerprint

    @pytest.mark.parametrize("transport,heuristic", [
        ("udp", "default"), ("tcp", "cursor")])
    def test_small_campaign_all_green(self, transport, heuristic):
        config = TestbedConfig(transport=transport,
                               server_heuristic=heuristic,
                               num_clients=2, seed=0)
        runs = run_campaign(config, ScheduleFuzzer(0), budget=5)
        assert len(runs) == 5
        assert all(run.result.ok for run in runs), \
            [run.result.failed_oracles for run in runs]


# ---------------------------------------------------------------------------
# Shrinking
# ---------------------------------------------------------------------------

class TestShrinker:
    #: The late crash plus bystander events that contribute nothing to
    #: the data loss.  The bystanders sit *after* the crash: an earlier
    #: stall would shift every subsequent write, changing which blocks
    #: the crash catches uncommitted — bystanders must perturb the
    #: outcome's account, not its cause.
    NOISY = ChaosSchedule(events=(
        FaultEvent("crash", 6.0, 1.5),
        FaultEvent("stall", 13.0, 0.5),
        FaultEvent("loss_burst", 15.0, 2.0, rate=0.3),
    ))

    def test_shrinks_to_single_crash_event(self):
        config = _config(recovery=False)
        assert "no_lost_acked_data" in run_chaos(
            config, self.NOISY).failed_oracles
        shrunk = shrink(config, self.NOISY, "no_lost_acked_data")
        assert shrunk.events == 1
        assert shrunk.schedule.events[0].kind == "crash"
        # The minimal schedule still fails the target oracle.
        assert "no_lost_acked_data" in run_chaos(
            config, shrunk.schedule).failed_oracles

    def test_shrinking_is_deterministic(self):
        config = _config(recovery=False)
        a = shrink(config, self.NOISY, "no_lost_acked_data")
        b = shrink(config, self.NOISY, "no_lost_acked_data")
        assert a.schedule == b.schedule
        assert a.runs == b.runs


# ---------------------------------------------------------------------------
# Bundles and replay
# ---------------------------------------------------------------------------

class TestBundles:
    def test_bundle_round_trip_reproduces(self, tmp_path):
        config = _config(recovery=False)
        result = run_chaos(config, LATE_CRASH)
        assert not result.ok
        path = str(tmp_path / "bundle.json")
        write_bundle(path, config, ChaosWorkload(), LATE_CRASH, result)
        data = read_bundle(path)
        assert data["version"] == 1
        assert data["config"]["mount_verifier_recovery"] is False
        outcome = replay_bundle(path)
        assert outcome.reproduced
        assert outcome.result.fingerprint == result.fingerprint

    def test_replay_output_is_byte_identical(self, tmp_path):
        config = _config(recovery=False)
        result = run_chaos(config, LATE_CRASH)
        path = str(tmp_path / "bundle.json")
        write_bundle(path, config, ChaosWorkload(), LATE_CRASH, result)
        first = json.dumps(replay_bundle(path).to_jsonable(),
                           sort_keys=True)
        second = json.dumps(replay_bundle(path).to_jsonable(),
                            sort_keys=True)
        assert first == second

    def test_stale_bundle_does_not_reproduce(self, tmp_path):
        config = _config(recovery=False)
        result = run_chaos(config, LATE_CRASH)
        path = str(tmp_path / "bundle.json")
        data = write_bundle(path, config, ChaosWorkload(), LATE_CRASH,
                            result)
        data["fingerprint"] = "0" * 64
        with open(path, "w") as handle:
            json.dump(data, handle)
        assert not replay_bundle(path).reproduced

    def test_rejects_wrong_kind_and_version(self, tmp_path):
        path = str(tmp_path / "bad.json")
        with open(path, "w") as handle:
            json.dump({"kind": "not-a-bundle"}, handle)
        with pytest.raises(ValueError):
            read_bundle(path)
        with open(path, "w") as handle:
            json.dump({"kind": "chaos-bundle", "version": 99}, handle)
        with pytest.raises(ValueError):
            read_bundle(path)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

class TestChaosCli:
    def test_fuzz_green_campaign_exits_zero(self, capsys):
        from repro.cli import main
        code = main(["chaos", "fuzz", "--budget", "3", "--seed", "0",
                     "--json"])
        record = json.loads(capsys.readouterr().out)["record"]
        assert code == 0
        assert record["ok"] and record["runs"] == 3
        assert record["distinct_failures"] == []

    def test_fuzz_failure_shrinks_and_bundles(self, tmp_path, capsys):
        from repro.cli import main
        bundle_dir = str(tmp_path / "bundles")
        code = main(["chaos", "fuzz", "--budget", "4", "--seed", "0",
                     "--no-recovery", "--bundle-dir", bundle_dir,
                     "--json"])
        record = json.loads(capsys.readouterr().out)["record"]
        assert code == 1
        assert record["distinct_failures"]
        failure = record["distinct_failures"][0]
        assert failure["bundle"] is not None
        # The written bundle replays to the same failure, and the CLI
        # replay verb agrees (exit 0 = reproduced).
        capsys.readouterr()
        assert main(["chaos", "replay", failure["bundle"],
                     "--json"]) == 0
        replay = json.loads(capsys.readouterr().out)
        assert replay["reproduced"]

    def test_replay_missing_bundle_exits_three(self, tmp_path, capsys):
        from repro.cli import main
        code = main(["chaos", "replay", str(tmp_path / "nope.json")])
        err = capsys.readouterr().err
        assert code == 3
        assert "cannot read bundle" in err
        assert "Traceback" not in err

    def test_replay_truncated_bundle_exits_three(self, tmp_path, capsys):
        from repro.cli import main
        path = tmp_path / "torn.json"
        path.write_text('{"kind": "chaos-bundle", "version": 1, "conf')
        code = main(["chaos", "replay", str(path)])
        err = capsys.readouterr().err
        assert code == 3
        assert "truncated or corrupt" in err

    def test_replay_incomplete_bundle_exits_three(self, tmp_path, capsys):
        from repro.cli import main
        path = tmp_path / "partial.json"
        path.write_text(json.dumps({"kind": "chaos-bundle",
                                    "version": 1, "config": {}}))
        code = main(["chaos", "replay", str(path)])
        err = capsys.readouterr().err
        assert code == 3
        assert "missing required field" in err

    def test_replay_wrong_version_exits_three(self, tmp_path, capsys):
        from repro.cli import main
        path = tmp_path / "future.json"
        path.write_text(json.dumps({"kind": "chaos-bundle",
                                    "version": 99}))
        code = main(["chaos", "replay", str(path)])
        err = capsys.readouterr().err
        assert code == 3
        assert "unsupported bundle version" in err
