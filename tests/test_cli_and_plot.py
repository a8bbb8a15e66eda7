"""Tests for the CLI and the ASCII plotter."""

import pytest

from repro.cli import build_parser, main
from repro.experiments import all_experiments
from repro.readahead import HEURISTICS
from repro.stats import Series, SeriesSet, render_plot, summarize
from repro.workloads import PATTERNS


def make_figure():
    figure = SeriesSet("Test figure", xlabel="readers")
    a = figure.new_series("alpha")
    for x, value in ((1, 10.0), (2, 20.0), (4, 15.0)):
        a.add(x, summarize([value]))
    b = figure.new_series("beta")
    for x, value in ((1, 5.0), (2, 5.0), (4, 5.0)):
        b.add(x, summarize([value]))
    return figure


class TestPlot:
    def test_contains_title_axis_and_legend(self):
        text = render_plot(make_figure())
        assert "Test figure" in text
        assert "readers" in text
        assert "o alpha" in text
        assert "x beta" in text

    def test_markers_plotted(self):
        text = render_plot(make_figure())
        assert text.count("o") >= 3 + 1   # points + legend
        assert text.count("x") >= 3 + 1

    def test_x_ticks_present(self):
        text = render_plot(make_figure())
        assert " 1" in text and "4" in text

    def test_y_scale_labels(self):
        text = render_plot(make_figure())
        assert "21.0" in text     # 20 * 1.05
        assert "0.0" in text

    def test_tiny_area_rejected(self):
        with pytest.raises(ValueError):
            render_plot(make_figure(), width=4, height=2)

    def test_empty_figure_rejected(self):
        with pytest.raises(ValueError):
            render_plot(SeriesSet("empty"))

    def test_custom_y_range(self):
        text = render_plot(make_figure(), y_max=100.0)
        assert "100.0" in text
        with pytest.raises(ValueError):
            render_plot(make_figure(), y_min=10.0, y_max=5.0)


_PARTITION_CHOICE = "invalid choice: 9 (choose from 1, 2, 3, 4)"
_HEURISTIC_CHOICE = ("invalid choice: '{}' (choose from "
                     + ", ".join(map(repr, HEURISTICS)) + ")")
_COMMAND_CHOICE = ("invalid choice: '{}' (choose from "
                   + ", ".join(map(repr, [e.id for e in all_experiments()]
                                   + ["list", "all", "bench", "replay",
                                      "diagnose", "chaos"]))
                   + ")")
_NAMESPACE = "bench --workload namespace"
_REPLAY = "replay --capture t.jsonl --replay t.jsonl"
_NO_DIR = "must be a file in an existing directory, got missing/"
_NO_FILE_DIR = "must be a file whose directory exists or can be made, got "
_NO_DIR_MADE = "must be a directory that exists or can be made, got "

#: (argv, the diagnostic after "error: ") for input rejected at parse
#: time with exit 2.  ``F`` is a regular file and ``D`` a directory in
#: the working directory.
BAD_ARGV = [
    ("fig8 --runs 0", "argument --runs: must be positive, got 0"),
    ("fig8 --scale 0", "argument --scale: must be positive, got 0"),
    ("bench --readers 0", "argument --readers: must be positive, got 0"),
    ("bench --runs 0", "argument --runs: must be positive, got 0"),
    ("bench --scale 0", "argument --scale: must be positive, got 0"),
    ("replay --capture t.jsonl --readers 0",
     "argument --readers: must be positive, got 0"),
    ("replay --capture t.jsonl --bench-scale 0",
     "argument --bench-scale: must be positive, got 0"),
    ("replay --replay t.jsonl --scale 0",
     "argument --scale: must be positive, got 0"),
    ("bench --scale 2 --runs 1", "argument --scale: must be at most 1, got 2"),
    ("fig4 --scale 1.5 --runs 1",
     "argument --scale: must be at most 1, got 1.5"),
    ("all --scale 3 --runs 1", "argument --scale: must be at most 1, got 3"),
    ("replay --capture t.jsonl --bench-scale 2",
     "argument --bench-scale: must be at most 1, got 2"),
    ("fig4 --runs 1 --scale 1e-9",
     "argument --scale: must be large enough for 32 readers, got 1e-9"),
    ("bench --scale 1e-9",
     "4 readers at scale 1e-09: scale too small for this reader count"),
    ("replay --capture t.jsonl --bench-scale 1e-9",
     "2 readers at scale 1e-09: scale too small for this reader count"),
    ("diagnose --floor -1", "argument --floor: must be non-negative, got -1"),
    ("diagnose --floor nan",
     "argument --floor: must be non-negative, got nan"),
    ("bench --partition 9", f"argument --partition: {_PARTITION_CHOICE}"),
    ("bench --heuristic bogus",
     "argument --heuristic: " + _HEURISTIC_CHOICE.format("bogus")),
    ("bench --jobs 0", "argument --jobs: must be positive, got 0"),
    (f"{_NAMESPACE} --pattern bogus",
     f"unknown namespace pattern 'bogus'; pick one of {PATTERNS}"),
    (f"{_NAMESPACE} --files 0", "need at least one file"),
    (f"{_NAMESPACE} --ops 0", "need at least one operation"),
    (f"{_NAMESPACE} --clients 0",
     "argument --clients: must be positive, got 0"),
    (f"{_NAMESPACE} --tree-depth -1", "depth cannot be negative"),
    (f"{_NAMESPACE} --files 10 --tree-depth 1 --fanout 32",
     "32**1 leaf directories need at least as many files, got 10"),
    (f"{_REPLAY} --capture-clients 0",
     "argument --capture-clients: must be positive, got 0"),
    (f"{_REPLAY} --clients -1",
     "argument --clients: must be non-negative, got -1"),
    (f"{_REPLAY} --target-partition 9",
     f"argument --target-partition: {_PARTITION_CHOICE}"),
    (f"{_REPLAY} --target-heuristic nope",
     "argument --target-heuristic: " + _HEURISTIC_CHOICE.format("nope")),
    ("chaos fuzz --clients 0", "argument --clients: must be positive, got 0"),
    ("chaos fuzz --horizon 0", "argument --horizon: must be positive, got 0"),
    ("chaos fuzz --max-events -1",
     "argument --max-events: must be positive, got -1"),
    ("chaos fuzz --heuristic nope",
     "argument --heuristic: " + _HEURISTIC_CHOICE.format("nope")),
    ("chaos fuzz --jobs 2 --cell-timeout 0",
     "argument --cell-timeout: must be positive, got 0"),
    ("chaos fuzz --jobs 2 --max-attempts 0",
     "argument --max-attempts: must be positive, got 0"),
    ("chaos fuzz --budget -1", "argument --budget: must be positive, got -1"),
    ("chaos fuzz --jobs 0", "argument --jobs: must be positive, got 0"),
    ("chaos fuzz --budget 0", "argument --budget: must be positive, got 0"),
    ("bench --max-attempts 0",
     "argument --max-attempts: must be positive, got 0"),
    ("bench --cell-timeout -1",
     "argument --cell-timeout: must be positive, got -1"),
    ("diagnose --trace t.json --slowest 0",
     "argument --slowest: must be positive, got 0"),
    ("diagnose --trace t.json --slowest -3",
     "argument --slowest: must be positive, got -3"),
    ("fig99", "argument COMMAND: " + _COMMAND_CHOICE.format("fig99")),
    ("--runs 1 fig1", "argument COMMAND: " + _COMMAND_CHOICE.format("1")),
    ("campaign bench --runs 10 --jobs 2",
     "argument COMMAND: " + _COMMAND_CHOICE.format("campaign")),
    ("campaign chaos --budget 1000 --jobs 2",
     "argument COMMAND: " + _COMMAND_CHOICE.format("campaign")),
    ("list --runs 3", "unrecognized arguments: --runs 3"),
    ("replay --zipf -1", "argument --zipf: must be non-negative, got -1"),
    ("chaos fuzz --wall-budget -1",
     "argument --wall-budget: must be positive, got -1"),
    ("chaos fuzz --shrink-runs -5",
     "argument --shrink-runs: must be positive, got -5"),
    ("chaos fuzz --shrink-runs 0",
     "argument --shrink-runs: must be positive, got 0"),
    ("fig1 --runs 1 --scale 0.01 --trace missing/t.json",
     f"argument --trace: {_NO_DIR}t.json"),
    ("fig1 --metrics-out missing/m.json",
     f"argument --metrics-out: {_NO_DIR}m.json"),
    ("fig1 --provenance missing/p.jsonl",
     f"argument --provenance: {_NO_DIR}p.jsonl"),
    ("fig1 --provenance-dot missing/p.dot",
     f"argument --provenance-dot: {_NO_DIR}p.dot"),
    ("fig1 --detail-out missing/d.json",
     f"argument --detail-out: {_NO_DIR}d.json"),
    ("bench --out missing/b.json", f"argument --out: {_NO_DIR}b.json"),
    ("replay --capture missing/t.jsonl",
     f"argument --capture: {_NO_DIR}t.jsonl"),
    ("replay --replay t.jsonl --trace missing/t.json",
     f"argument --trace: {_NO_DIR}t.json"),
    ("replay --replay t.jsonl --provenance missing/p.jsonl",
     f"argument --provenance: {_NO_DIR}p.jsonl"),
    ("bench --runs 1 --readers 1 --scale 0.02 --history F/h.jsonl",
     f"argument --history: {_NO_FILE_DIR}F/h.jsonl"),
    ("bench --runs 1 --readers 1 --scale 0.02 --history D",
     "argument --history: must be a file, not a directory, got D"),
    ("bench --runs 1 --readers 1 --scale 0.02 --journal F/j.jsonl",
     f"argument --journal: {_NO_FILE_DIR}F/j.jsonl"),
    ("chaos fuzz --budget 1 --report F/rep",
     f"argument --report: {_NO_DIR_MADE}F/rep"),
    ("chaos fuzz --budget 1 --report F",
     f"argument --report: {_NO_DIR_MADE}F"),
    ("chaos fuzz --budget 2 --no-recovery --bundle-dir F/b",
     f"argument --bundle-dir: {_NO_DIR_MADE}F/b"),
    ("chaos fuzz --budget 2 --resume", "--resume needs --journal"),
    ("bench --runs 1 --readers 1 --scale 0.02 --resume",
     "--resume needs --journal"),
]


class TestCli:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["fig1"])
        assert args.experiment == "fig1"
        assert args.scale == 0.125
        assert args.runs == 3
        assert not args.plot

    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig1" in out and "table1" in out and "xlossy" in out

    def test_run_small_experiment(self, capsys):
        code = main(["fig8", "--runs", "1", "--scale", "0.03125",
                     "--no-std", "--plot"])
        assert code == 0
        out = capsys.readouterr().out
        assert "stride" in out.lower()
        assert "paper claim" in out
        assert "|" in out            # the plot was drawn

    @pytest.mark.parametrize("argv,message", BAD_ARGV,
                             ids=[argv for argv, _ in BAD_ARGV])
    def test_non_positive_numbers_fail_at_parse_time(self, argv, message,
                                                     capsys, tmp_path,
                                                     monkeypatch):
        """Bad numbers, names and paths exit 2 with one diagnostic line
        before anything runs or is written."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "F").write_text("a file\n")
        (tmp_path / "D").mkdir()
        with pytest.raises(SystemExit) as exit_:
            main(argv.split())
        assert exit_.value.code == 2
        out, err = capsys.readouterr()
        assert "Traceback" not in err and out == ""
        assert [line for line in err.splitlines() if "error:" in line] \
            == [err.splitlines()[-1]]
        assert err.splitlines()[-1].endswith(f"error: {message}")
        assert sorted(path.name for path in tmp_path.iterdir()) \
            == ["D", "F"]
        assert list((tmp_path / "D").iterdir()) == []
        assert (tmp_path / "F").read_text() == "a file\n"


class TestBenchVerb:
    def test_json_output_parses(self, capsys):
        import json
        code = main(["bench", "--readers", "1", "--runs", "2",
                     "--scale", "0.02", "--json"])
        assert code == 0
        record = json.loads(capsys.readouterr().out)["record"]
        assert record["verb"] == "bench"
        assert record["runs"] == 2
        assert len(record["throughputs_mb_s"]) == 2
        assert record["mean_mb_s"] > 0

    def test_jobs_do_not_change_the_output(self, capsys):
        import json
        args = ["bench", "--readers", "1", "--runs", "2",
                "--scale", "0.02", "--json"]
        assert main(args) == 0
        serial = json.loads(capsys.readouterr().out)["record"]
        assert main(args + ["--jobs", "2"]) == 0
        parallel = json.loads(capsys.readouterr().out)["record"]
        assert json.dumps(parallel) == json.dumps(serial)

    def test_prose_output(self, capsys):
        assert main(["bench", "--readers", "1", "--runs", "1",
                     "--scale", "0.02"]) == 0
        assert "MB/s" in capsys.readouterr().out

    def test_abandoned_cell_is_one_line_and_exit_4(self, capsys,
                                                   monkeypatch):
        """A sharded run that abandons a cell exits 4 with one summary
        line after its indented progress lines, and no traceback."""
        from repro.campaign import cells, run_bench_cell

        def broken_on_cell_1(spec, index):
            if index == 1:
                raise RuntimeError("cell 1 is broken")
            return run_bench_cell(spec, index)

        monkeypatch.setitem(cells._CELL_RUNNERS, "bench", broken_on_cell_1)
        assert main(["bench", "--runs", "2", "--readers", "2",
                     "--scale", "0.05", "--jobs", "2"]) == 4
        out, err = capsys.readouterr()
        summary = [line for line in err.splitlines()
                   if not line.startswith("  ")]
        assert out == "" and len(summary) == 1
        assert summary[0].startswith(
            "campaign: bench campaign: 1/2 cells done")
        assert "cell 1 is broken" in summary[0]
        assert "Traceback" not in err


class TestReplayVerb:
    def test_capture_then_replay_one_invocation(self, tmp_path, capsys):
        """A UDP/default capture replays against TCP/cursors/improved."""
        import json
        trace_path = str(tmp_path / "t.jsonl")
        code = main(["replay", "--capture", trace_path,
                     "--replay", trace_path,
                     "--bench-scale", "0.02", "--readers", "2",
                     "--target-transport", "tcp",
                     "--target-heuristic", "cursor",
                     "--target-nfsheur", "improved",
                     "--clients", "3", "--json"])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["clients"] == 3
        assert summary["ops_completed"] > 0
        assert summary["errors"] == 0

    def test_replay_is_deterministic_across_invocations(
            self, tmp_path, capsys):
        trace_path = str(tmp_path / "t.jsonl")
        assert main(["replay", "--capture", trace_path,
                     "--bench-scale", "0.02"]) == 0
        capsys.readouterr()
        args = ["replay", "--replay", trace_path, "--mode", "open",
                "--scale", "2.0", "--json"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first

    def test_needs_capture_or_replay(self, capsys):
        assert main(["replay"]) == 2
        assert "need --capture" in capsys.readouterr().err

    def test_missing_trace_file_fails_cleanly(self, tmp_path, capsys):
        missing = str(tmp_path / "absent.jsonl")
        assert main(["replay", "--replay", missing]) == 2
        assert "replay:" in capsys.readouterr().err

    def test_corrupt_trace_file_fails_cleanly(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        assert main(["replay", "--replay", str(bad)]) == 2
        assert "replay:" in capsys.readouterr().err
