"""Tests for the CLI and the ASCII plotter."""

import pytest

from repro.cli import build_parser, main
from repro.stats import Series, SeriesSet, render_plot, summarize


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

    def test_unknown_experiment_fails_cleanly(self, capsys):
        assert main(["fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_run_small_experiment(self, capsys):
        code = main(["fig8", "--runs", "1", "--scale", "0.03125",
                     "--no-std", "--plot"])
        assert code == 0
        out = capsys.readouterr().out
        assert "stride" in out.lower()
        assert "paper claim" in out
        assert "|" in out            # the plot was drawn

    @pytest.mark.parametrize("argv", [
        "fig8 --runs 0",
        "fig8 --scale 0",
        "bench --readers 0",
        "bench --runs 0",
        "bench --scale 0",
        "replay --capture t.jsonl --readers 0",
        "replay --capture t.jsonl --bench-scale 0",
        "replay --replay t.jsonl --scale 0",
        "campaign bench --runs 0",
        "campaign bench --readers 0",
    ])
    def test_non_positive_numbers_fail_at_parse_time(self, argv, capsys,
                                                     tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exit_:
            main(argv.split())
        assert exit_.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        flag = argv.split()[-2]
        assert err.splitlines()[-1].endswith(
            f"error: argument {flag}: must be positive, got 0")
        assert list(tmp_path.iterdir()) == []


class TestBenchVerb:
    def test_json_output_parses(self, capsys):
        import json
        code = main(["bench", "--readers", "1", "--runs", "2",
                     "--scale", "0.02", "--json"])
        assert code == 0
        record = json.loads(capsys.readouterr().out)
        assert record["verb"] == "bench"
        assert record["runs"] == 2
        assert len(record["throughputs_mb_s"]) == 2
        assert record["mean_mb_s"] > 0

    def test_jobs_do_not_change_the_output(self, capsys):
        args = ["bench", "--readers", "1", "--runs", "2",
                "--scale", "0.02", "--json"]
        assert main(args) == 0
        serial = capsys.readouterr().out
        assert main(args + ["--jobs", "2"]) == 0
        parallel = capsys.readouterr().out
        # Only the echoed jobs count may differ.
        assert parallel.replace('"jobs": 2', '"jobs": 1') == serial

    def test_prose_output(self, capsys):
        assert main(["bench", "--readers", "1", "--runs", "1",
                     "--scale", "0.02"]) == 0
        assert "MB/s" in capsys.readouterr().out


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
