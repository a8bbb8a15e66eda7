"""Unit tests for the experiment sweep (with a stub runner)."""

from repro.bench.readers import ReaderResult
from repro.bench.runner import RunResult
from repro.experiments.common import completion_distribution, sweep
from repro.host import TestbedConfig
from repro.stats import SeriesSet

MB = 1 << 20


def stub_result(throughput_mb_s, nreaders=1):
    readers = []
    for index in range(nreaders):
        reader = ReaderResult(f"r{index}")
        reader.bytes_read = MB
        reader.start_time = 0.0
        reader.finish_time = (index + 1) / throughput_mb_s / nreaders
        readers.append(reader)
    return RunResult(readers=readers, total_bytes=nreaders * MB)


class TestSweepReaders:
    def test_structure(self):
        calls = []

        def run_once(config, nreaders):
            calls.append((config.seed, nreaders))
            return stub_result(10.0)

        figure = sweep(
            SeriesSet("t", xlabel="readers"),
            [("a", TestbedConfig()), ("b", TestbedConfig())],
            (1, 4), run_once, runs=2, seed=7)
        assert figure.labels == ["a", "b"]
        assert figure.get("a").xs == [1, 4]
        assert figure.get("a").at(1).count == 2
        # 2 configs x 2 points x 2 runs.
        assert len(calls) == 8

    def test_seeds_vary_per_run_and_point(self):
        seeds = []

        def run_once(config, nreaders):
            seeds.append(config.seed)
            return stub_result(1.0)

        sweep(SeriesSet("t", xlabel="readers"), [("a", TestbedConfig())],
              (1, 2), run_once, runs=2, seed=0)
        assert len(set(seeds)) == len(seeds)


class TestSweepStrides:
    def test_structure(self):
        def fake_stride(config, strides):
            return stub_result(float(strides))

        figure = sweep(SeriesSet("t", xlabel="strides"),
                       [("x", TestbedConfig())], (2, 8), fake_stride,
                       runs=1, seed=0)
        assert figure.get("x").at(2).mean == 2.0
        assert figure.get("x").at(8).mean == 8.0


class TestCompletionDistribution:
    def test_positions_sorted_and_averaged(self, monkeypatch):
        import repro.experiments.common as common

        def fake_local(config, nreaders, scale):
            return stub_result(4.0, nreaders=nreaders)

        monkeypatch.setattr(common, "run_local_once", fake_local)
        figure = completion_distribution(
            "t", [("cfg", TestbedConfig())], nreaders=4, runs=3)
        series = figure.get("cfg")
        assert series.xs == [1, 2, 3, 4]
        means = series.means
        assert means == sorted(means)
        assert series.at(1).count == 3
