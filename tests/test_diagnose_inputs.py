"""`diagnose` on readable JSON of the wrong shape: exit 2, one line.

README gives exit 1 the meaning "a failing verdict", so an input the
loaders cannot use must end in exit 2 with one stderr line that names
the file and what is wrong, never in a traceback.  Each case below is
valid JSON (or JSONL) shaped wrongly for its flag.
"""

import json

import pytest

from repro.cli import main
from repro.obs.provenance import PROVENANCE_FORMAT, PROVENANCE_VERSION

HEADER = json.dumps({"format": PROVENANCE_FORMAT, "records": 1,
                     "version": PROVENANCE_VERSION})
EDGE = {"args": {}, "dst": 2, "kind": "retried-as", "run": 0, "src": 1,
        "t": 0.0, "type": "edge"}
NOTE = {"args": {}, "node": 1, "run": 0, "t": 0.0, "type": "note"}
SPAN = {"ph": "X", "name": "a", "cat": "bench", "ts": 0.0, "dur": 0.0,
        "pid": 1, "tid": 1, "args": {"span_id": 1, "t0": 0.0, "t1": 0.0}}
BENCH = {"verb": "bench", "drive": "ide", "partition": 1,
         "transport": "udp", "heuristic": "default", "nfsheur": "default",
         "readers": 2, "scale": 0.05, "seed": 0, "runs": 2,
         "throughputs_mb_s": [18.0, 18.0], "mean_mb_s": 18.0,
         "std_mb_s": 0.0}
COVERAGE = {"cells": 2, "done": 2}


def without(payload, *path):
    """A deep copy of ``payload`` with the key at ``path`` removed."""
    copy = json.loads(json.dumps(payload))
    inner = copy
    for key in path[:-1]:
        inner = inner[key]
    del inner[path[-1]]
    return copy


#: (flag, file contents) — every one of them used to end in a
#: traceback (exit 1) or in a line naming neither file nor field.
CASES = [
    ("--trace", "[1,2]"),
    ("--trace", '{"traceEvents":{"a":1}}'),
    ("--trace", '{"traceEvents":[3]}'),
    ("--trace", "{}"),
    ("--trace", json.dumps({"traceEvents": [without(SPAN, "args", "t1")]})),
    ("--metrics", "[1,2]"),
    ("--metrics", '{"snapshots":3}'),
    ("--metrics", '{"snapshots":[{"gauges":3}]}'),
    ("--metrics", '{"histograms":{"x":3}}'),
    ("--provenance", "[1]\n"),
    ("--provenance", f"{HEADER}\n[1]\n"),
    ("--provenance", f"{HEADER}\n{json.dumps(without(EDGE, 'kind'))}\n"),
    ("--provenance", f"{HEADER}\n{json.dumps(without(NOTE, 't'))}\n"),
    ("--trace", json.dumps({"traceEvents": [
        {"ph": "X", "name": "a", "cat": "bench",
         "args": {"span_id": 1, "t0": "x", "t1": 0.0}}]})),
    ("--metrics", '{"snapshots":[{"gauges":3}],"merged":{"gauges":{}}}'),
    ("--bench", json.dumps({"record": {"verb": "chaos-campaign"},
                            "coverage": COVERAGE})),
    ("--bench", '{"runs": 2}'),
    ("--bench", json.dumps(without(BENCH, "mean_mb_s"))),
]


@pytest.mark.parametrize("flag,contents", CASES,
                         ids=[f"{flag[2:]}-{index}" for index, (flag, _c)
                              in enumerate(CASES)])
def test_wrong_shape_is_one_line_and_exit_2(tmp_path, capsys, flag,
                                            contents):
    bad = tmp_path / "input.json"
    bad.write_text(contents)
    argv = ["diagnose", flag, str(bad)]
    if flag == "--provenance":
        trace = tmp_path / "t.json"
        trace.write_text(json.dumps({"traceEvents": [SPAN]}))
        argv += ["--trace", str(trace)]
    if flag == "--bench":
        history = tmp_path / "h.jsonl"
        history.write_text(json.dumps(BENCH) + "\n")
        argv += ["--against", str(history)]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err
    assert err.count("\n") == 1 and err.startswith("diagnose: ")
    assert str(bad) in err


def test_jsonl_errors_name_the_line(tmp_path, capsys):
    bad = tmp_path / "p.jsonl"
    bad.write_text(f"{HEADER}\n{json.dumps(NOTE)}\n\n"
                   f"{json.dumps(without(EDGE, 'kind'))}\n")
    trace = tmp_path / "t.json"
    trace.write_text(json.dumps({"traceEvents": [SPAN]}))
    assert main(["diagnose", "--trace", str(trace),
                 "--provenance", str(bad)]) == 2
    assert f"{bad}:4: record has no 'kind' field" in capsys.readouterr().err


def test_trace_errors_name_the_event_and_field(tmp_path, capsys):
    late = json.loads(json.dumps(SPAN))
    late["args"]["t1"] = [0.0]
    bad = tmp_path / "t.json"
    bad.write_text(json.dumps({"traceEvents": [SPAN, late]}))
    assert main(["diagnose", "--trace", str(bad)]) == 2
    assert (f"{bad}: trace event 1: 't1' is not a number"
            in capsys.readouterr().err)


@pytest.mark.parametrize("shape", ["bare", "payload"])
def test_bench_record_is_gated_bare_or_as_the_json_payload(
        tmp_path, capsys, shape):
    """Both shapes `bench` writes are gated on the record they hold."""
    history = tmp_path / "h.jsonl"
    history.write_text(json.dumps(BENCH) + "\n")
    halved = dict(BENCH, throughputs_mb_s=[9.0, 9.0], mean_mb_s=9.0)
    bench = tmp_path / "b.json"
    bench.write_text(json.dumps(
        halved if shape == "bare"
        else {"record": halved, "coverage": COVERAGE}))
    assert main(["diagnose", "--bench", str(bench), "--against",
                 str(history), "--json"]) == 1
    gate = json.loads(capsys.readouterr().out)["gate"]
    assert gate["key"].startswith("verb=bench/")
    assert gate["rel_delta"] == pytest.approx(0.5)
