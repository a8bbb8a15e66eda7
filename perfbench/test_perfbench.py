"""Tests of the benchmark itself, at quick sizes.

    python -m pytest perfbench/test_perfbench.py -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import PER_LAYER  # noqa: E402
from workloads import (Batch, ChaosMixed, GateFailure, NsEdit,  # noqa: E402
                       ReplayDiagnose, ReplayRead)

QUICK = {
    "replay-read": ReplayRead(scale=0.03125, clients=2),
    "ns-edit": NsEdit(files=400, depth=1, fanout=8, ops=60),
    "chaos-mixed": ChaosMixed(budget=2),
    "replay-diagnose": ReplayDiagnose(scale=0.03125, clients=2, slowest=3),
}


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def test_benchmark_json_matches_the_code():
    spec = _spec()
    assert ([workload["name"] for workload in spec["workloads"]]
            == list(workloads.WORKLOADS) == list(QUICK))
    assert {metric["name"]: (metric["unit"], metric["better"])
            for metric in spec["end_to_end"]} == run.END_TO_END
    assert {metric["name"]: (metric["unit"], metric["better"])
            for metric in spec["per_layer"]} == {
                name: entry[:2] for name, entry in PER_LAYER.items()}


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """Two traced quick runs of every workload, on a seed other than 0."""
    return {name: [run.measure(workload, seed=3, seconds=0.01, trace=True,
                               workdir=str(tmp_path_factory.mktemp(name)))
                   for _ in range(2)]
            for name, workload in QUICK.items()}


@pytest.mark.parametrize("name", list(QUICK))
def test_exact_counters_and_digest_repeat(traced, name):
    first, second = traced[name]
    assert first["counters"]["sim.events"] > 0
    assert first["counters"] == second["counters"]
    assert first["digest"] == second["digest"]
    assert first["failed"] == 0 and first["attempted"] > 0


@pytest.mark.parametrize("name", list(QUICK))
def test_traced_run_reports_every_per_layer_metric(traced, name):
    assert list(traced[name][0]["metrics"]) == list(PER_LAYER)


def test_only_the_diagnose_workload_records_observations(traced):
    for name, (record, _) in traced.items():
        spans = record["metrics"]["obs.spans_per_op"]
        assert (spans > 0) == (name == "replay-diagnose")


@pytest.mark.parametrize("trace", [0, 1])
def test_output_names_every_metric_with_unit_and_direction(
        monkeypatch, capsys, trace):
    monkeypatch.setitem(workloads.WORKLOADS, "ns-edit", QUICK["ns-edit"])
    assert run.main(["--workload", "ns-edit", "--seed", "1", "--seconds",
                     "0.01", "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    record = json.loads(lines[-2].split(" ", 1)[1])
    result = json.loads(lines[-1])
    spec = _spec()["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert list(result["metrics"]) == [metric["name"] for metric in spec]
    for metric in spec:
        assert record["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert (record["metrics"][metric["name"]]["better"]
                == metric["better"])
        assert (result["metrics"][metric["name"]]
                == {"value": record["metrics"][metric["name"]]["value"],
                    "unit": metric["unit"]})
    for key in ("commit", "source_sha256", "python", "platform", "nproc",
                "seed"):
        assert key in record["manifest"]


class _Flaky:
    """A workload whose repeats disagree, or whose check fails."""

    name = "flaky"

    def __init__(self, fail: bool):
        self.fail = fail
        self.batches = 0

    def prepare(self, seed):
        return seed

    def run(self, inputs, phases, workdir):
        if self.fail:
            raise GateFailure("simulated output is wrong")
        self.batches += 1
        return Batch(ops=1, attempted=1, failed=0, payload=self.batches)


@pytest.mark.parametrize("fail", [True, False])
def test_gate_failure_exits_nonzero_without_a_result(monkeypatch, capsys,
                                                     fail):
    monkeypatch.setitem(workloads.WORKLOADS, "ns-edit", _Flaky(fail))
    assert run.main(["--workload", "ns-edit", "--seconds", "0.01"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1
    assert "correctness gate failed" in captured.err


def test_refuses_to_run_without_the_simulator(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "replay-read",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
