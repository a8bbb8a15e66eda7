"""The metadata chaos campaign end to end.

Engine-level: a seeded metadata campaign with crash schedules stays
green under the intent log; the ack-before-intent bug hook is caught by
the no-lost-acked-metadata oracle, shrinks to a minimal schedule, and
round-trips through a version-2 bundle bit-identically.  A checked-in
version-1 bundle pins the frozen write-workload format: `chaos replay`
must keep reproducing it byte for byte.  CLI-level: the `--workload`
flag routes the kinds, defaults to `write`, and exit codes are
unchanged.
"""

import json
import os

import pytest

from repro.chaos import (ChaosSchedule, ChaosWorkload, FaultEvent,
                         METADATA_ORACLE_NAMES, MetadataWorkload,
                         MixedWorkload, ScheduleFuzzer, read_bundle,
                         replay_bundle, run_campaign, run_chaos,
                         shrink, workload_from_jsonable, write_bundle)
from repro.chaos.bundle import (BUNDLE_VERSION, BUNDLE_VERSION_META,
                                bundle_dict)
from repro.host.testbed import TestbedConfig

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")

LATE_CRASH = ChaosSchedule(events=(FaultEvent("crash", 6.0, 1.5),))


def _config(**kwargs) -> TestbedConfig:
    kwargs.setdefault("num_clients", 2)
    kwargs.setdefault("seed", 0)
    return TestbedConfig(**kwargs)


class TestWorkloadKinds:
    def test_metadata_jsonable_round_trip(self):
        workload = MetadataWorkload(dirs=3, ops_per_client=10)
        data = workload.to_jsonable()
        assert data["kind"] == "metadata"
        assert workload_from_jsonable(data) == workload

    def test_mixed_jsonable_round_trip(self):
        workload = MixedWorkload()
        data = workload.to_jsonable()
        assert data["kind"] == "mixed"
        assert workload_from_jsonable(data) == workload

    def test_kindless_data_is_the_write_workload(self):
        data = ChaosWorkload().to_jsonable()
        assert "kind" not in data
        assert workload_from_jsonable(data) == ChaosWorkload()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            workload_from_jsonable({"kind": "quantum"})

    def test_fraction_validation(self):
        with pytest.raises(ValueError):
            MetadataWorkload(create_fraction=0.8, remove_fraction=0.3)


class TestMetadataEngine:
    def test_clean_run_passes_all_oracles(self):
        result = run_chaos(_config(), ChaosSchedule(),
                           MetadataWorkload())
        assert result.ok
        assert tuple(o.name for o in result.oracles) == \
            METADATA_ORACLE_NAMES
        assert result.counters["creates"] > 0

    def test_crash_recovery_keeps_oracles_green(self):
        result = run_chaos(_config(), LATE_CRASH, MetadataWorkload())
        assert result.ok, result.failed_oracles
        assert result.counters["server_boot_epoch"] == 1
        assert result.counters["recovery_fscks"] == 1
        assert result.counters["meta_intents"] > 0

    def test_ack_before_intent_is_caught(self):
        result = run_chaos(_config(meta_ack_before_intent=True),
                           LATE_CRASH, MetadataWorkload())
        assert "no_lost_acked_metadata" in result.failed_oracles
        assert result.counters["meta_undone"] > 0
        assert result.counters["meta_commits"] == 0

    def test_fingerprint_is_deterministic(self):
        a = run_chaos(_config(), LATE_CRASH, MetadataWorkload())
        b = run_chaos(_config(), LATE_CRASH, MetadataWorkload())
        assert a.fingerprint == b.fingerprint

    def test_mixed_run_reports_both_oracle_families(self):
        result = run_chaos(_config(), LATE_CRASH, MixedWorkload())
        names = tuple(o.name for o in result.oracles)
        assert names.count("liveness") == 1
        assert "no_lost_acked_data" in names
        assert "no_lost_acked_metadata" in names
        assert result.ok, result.failed_oracles

    def test_write_fingerprint_ignores_metadata_machinery(self):
        """A pure write run's payload has no metadata keys: the v1
        fingerprint contract is preserved."""
        result = run_chaos(_config(), LATE_CRASH)
        assert "creates" not in result.counters
        assert "meta_intents" not in result.counters
        names = tuple(o.name for o in result.oracles)
        assert "no_lost_acked_metadata" not in names

    def test_small_metadata_campaign_all_green(self):
        runs = run_campaign(_config(), ScheduleFuzzer(3), budget=4,
                            workload=MetadataWorkload())
        assert all(run.result.ok for run in runs), \
            [run.result.failed_oracles for run in runs]


class TestMetadataShrinkAndBundle:
    def test_failure_shrinks_and_bundles_v2(self, tmp_path):
        config = _config(meta_ack_before_intent=True)
        workload = MetadataWorkload()
        noisy = ChaosSchedule(events=(
            FaultEvent("crash", 6.0, 1.5),
            FaultEvent("stall", 13.0, 0.5),
            FaultEvent("loss_burst", 15.0, 2.0, rate=0.3),
        ))
        first = run_chaos(config, noisy, workload)
        assert "no_lost_acked_metadata" in first.failed_oracles
        shrunk = shrink(config, noisy, "no_lost_acked_metadata",
                        workload=workload)
        assert len(shrunk.schedule.events) == 1
        assert shrunk.schedule.events[0].kind == "crash"

        final = run_chaos(config, shrunk.schedule, workload)
        path = str(tmp_path / "meta.json")
        data = write_bundle(path, config, workload, shrunk.schedule,
                            final)
        assert data["version"] == BUNDLE_VERSION_META
        assert data["config"]["meta_ack_before_intent"] is True
        outcome = replay_bundle(path)
        assert outcome.reproduced

    def test_write_workload_still_bundles_v1(self, tmp_path):
        config = _config(mount_verifier_recovery=False)
        result = run_chaos(config, LATE_CRASH)
        data = bundle_dict(config, ChaosWorkload(), LATE_CRASH, result)
        assert data["version"] == BUNDLE_VERSION
        assert "metadata_journal" not in data["config"]

    def test_v1_regression_bundle_replays_byte_identically(self):
        """The checked-in pre-metadata bundle: proof the write
        workload's fingerprint payload did not move."""
        path = os.path.join(DATA_DIR, "chaos-v1-regression.json")
        data = read_bundle(path)
        assert data["version"] == BUNDLE_VERSION
        outcome = replay_bundle(path)
        assert outcome.reproduced, (
            outcome.result.fingerprint, outcome.expected_fingerprint)


class TestMetadataCli:
    def test_fuzz_metadata_green(self, capsys):
        from repro.cli import main
        code = main(["chaos", "fuzz", "--workload", "metadata",
                     "--budget", "2", "--seed", "3", "--horizon", "12",
                     "--max-events", "2", "--json"])
        record = json.loads(capsys.readouterr().out)["record"]
        assert code == 0
        assert record["ok"] is True
        assert record["distinct_failures"] == []
        assert record["workload"] == "metadata"

    def test_fuzz_default_workload_is_write(self, capsys):
        from repro.cli import main
        code = main(["chaos", "fuzz", "--budget", "2", "--seed", "0",
                     "--json"])
        record = json.loads(capsys.readouterr().out)["record"]
        assert code == 0
        assert record["workload"] == "write"
        assert record["ack_before_intent"] is False

    def test_fuzz_ack_before_intent_fails_and_bundles(self, tmp_path,
                                                      capsys):
        from repro.cli import main
        code = main(["chaos", "fuzz", "--workload", "metadata",
                     "--ack-before-intent", "--budget", "4",
                     "--seed", "3", "--horizon", "12",
                     "--max-events", "2",
                     "--bundle-dir", str(tmp_path), "--json"])
        record = json.loads(capsys.readouterr().out)["record"]
        assert code == 1
        assert not record["ok"]
        failure = record["distinct_failures"][0]
        assert "no_lost_acked_metadata" in failure["failed_oracles"]
        assert failure["bundle"] is not None

        capsys.readouterr()
        assert main(["chaos", "replay", failure["bundle"],
                     "--json"]) == 0
        replay = json.loads(capsys.readouterr().out)
        assert replay["reproduced"] is True
