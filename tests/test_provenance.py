"""Causal-provenance battery: lineage capture, export, root cause.

Five contracts:

* **Zero perturbation** — a provenance-enabled run is bit-identical to
  a disabled run and equal to the result each former scheduler kernel
  produced, and the provenance artifact itself is byte-identical across
  reruns.
* **Export round trip** — any provenance graph survives a JSONL
  write/read byte-identically (property-based), and the Perfetto flow
  events carry per-export-unique flow ids.
* **Evidence chains** — ``diagnose --slowest`` decompositions tile the
  op's interval exactly: hop durations sum to the op's measured
  latency, and consecutive hops share boundaries.
* **Retry dedupe** — over lossy UDP every RPC transmission-attempt
  window closes at most once (dedupe by ``(xid, attempt)``), and only
  unambiguous first-attempt replies feed the RTT histogram (Karn).
* **Detector citations** — the ZCAV and TCQ detectors attach exact
  causal chains to their findings when provenance is available.
"""

import dataclasses
import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench import run_nfs_once
from repro.diagnose import DiagnosisInputs, split_runs
from repro.diagnose.detectors.tcq import TcqReorderingDetector
from repro.diagnose.detectors.zcav import ZcavDetector
from repro.diagnose.rootcause import (explain_op, explain_slowest, find_op,
                                      render_chains, slowest_ops)
from repro.host.testbed import TestbedConfig
from repro.obs import observe
from repro.obs.provenance import (EDGE_KINDS, PROVENANCE_VERSION,
                                  ProvEdge, ProvNote, dumps_provenance,
                                  loads_provenance, to_dot)

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")

SCALE = 0.05
LOSSY = dict(loss_rate=0.02, seed=3)


def run_once(provenance: bool, config: TestbedConfig = None,
             nreaders: int = 2):
    config = config or TestbedConfig(**LOSSY)
    if provenance:
        with observe(provenance=True) as session:
            result = run_nfs_once(config, nreaders, scale=SCALE)
        return result, session
    return run_nfs_once(config, nreaders, scale=SCALE), None


@pytest.fixture(scope="module")
def lossy_session():
    """One provenance-enabled lossy-UDP run (shared: it is expensive)."""
    _result, session = run_once(provenance=True)
    return session


@pytest.fixture(scope="module")
def tcq_session():
    """A TCQ-contended SCSI run: drive firmware reorders under load."""
    config = TestbedConfig(drive="scsi", tagged_queueing=True, seed=1)
    _result, session = run_once(provenance=True, config=config,
                                nreaders=4)
    return session


def inputs_from(session) -> DiagnosisInputs:
    return DiagnosisInputs(runs=split_runs(session.spans),
                           provenance=session.prov_records)


def census(session) -> dict:
    """Per-kind record counts, the trace's flow events, and the edges
    that join a span to its own parent or child (the span tree already
    holds those)."""
    parent = {span.id: span.parent_id for span in session.spans}
    kinds = {}
    restating = 0
    for record in session.prov_records:
        kind = record.kind if isinstance(record, ProvEdge) else "note"
        kinds[kind] = kinds.get(kind, 0) + 1
        if kind != "note" and (parent.get(record.dst) == record.src
                               or parent.get(record.src) == record.dst):
            restating += 1
    flows = sum(1 for event in json.loads(session.trace_json())
                ["traceEvents"] if event["ph"] in ("s", "f"))
    return {"kinds": dict(sorted(kinds.items())), "flow_events": flows,
            "restating": restating}


# ---------------------------------------------------------------------------
# Zero perturbation


#: SHA-256 of the lossy run's canonical ``RunResult`` as each former
#: scheduler kernel (calendar queue, binary heap) produced it, with
#: provenance off and on, pinned before both gave way to the one heap
#: kernel.
KERNEL_RESULT_DIGESTS = {
    "calendar": "ffe4a7dc65ec30211f839d2e3b3273c3"
                "acd6b17fd2a8412e395e98c9e6ee8bb9",
    "heap": "ffe4a7dc65ec30211f839d2e3b3273c3"
            "acd6b17fd2a8412e395e98c9e6ee8bb9",
}


def result_digest(result) -> str:
    blob = json.dumps(dataclasses.asdict(result), sort_keys=True,
                      separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


class TestZeroPerturbation:
    @pytest.mark.parametrize("kernel", list(KERNEL_RESULT_DIGESTS))
    def test_enabling_provenance_is_bit_identical(self, kernel):
        baseline = run_once(provenance=False)[0]
        enabled = run_once(provenance=True)[0]
        assert enabled == baseline
        assert result_digest(enabled) == KERNEL_RESULT_DIGESTS[kernel], \
            f"result moved from the one the {kernel} kernel produced"

    def test_provenance_artifact_identical_across_reruns(self, lossy_session):
        _result, session = run_once(provenance=True)
        assert (session.provenance_jsonl(), session.trace_json()) == \
            (lossy_session.provenance_jsonl(), lossy_session.trace_json())


# ---------------------------------------------------------------------------
# Export round trip (property-based)


_args = st.dictionaries(
    st.sampled_from(["lba", "block", "write", "zone", "behind",
                     "closed", "elapsed_s"]),
    st.one_of(st.integers(-2**31, 2**31), st.booleans(),
              st.floats(allow_nan=False, allow_infinity=False),
              st.text(max_size=12)),
    max_size=4)

_edges = st.builds(
    ProvEdge, kind=st.sampled_from(EDGE_KINDS),
    src=st.integers(1, 2**40), dst=st.integers(1, 2**40),
    t=st.floats(0, 1e6, allow_nan=False), args=_args,
    run=st.integers(0, 64))

_notes = st.builds(
    ProvNote, node=st.integers(1, 2**40),
    t=st.floats(0, 1e6, allow_nan=False), args=_args,
    run=st.integers(0, 64))


class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.one_of(_edges, _notes), max_size=40))
    def test_jsonl_round_trip_byte_identical(self, records):
        text = dumps_provenance(records)
        reloaded = loads_provenance(text)
        assert dumps_provenance(reloaded) == text
        assert [r.key() for r in reloaded] == [r.key() for r in records]

    def test_real_graph_round_trips(self, lossy_session):
        text = lossy_session.provenance_jsonl()
        assert dumps_provenance(loads_provenance(text)) == text

    def test_loads_rejects_bad_header(self):
        with pytest.raises(ValueError):
            loads_provenance('{"format":"something-else","version":1,'
                             '"records":0}\n')

    def test_loads_rejects_two_records_on_one_line(self):
        note = '{"args":{},"node":1,"run":0,"t":0.0,"type":"note"}'
        text = dumps_provenance([ProvNote(1, 0.0, {})])
        header = text.splitlines()[0]
        with pytest.raises(ValueError):
            loads_provenance(f"{header}\n{note},{note}\n")

    def test_dot_export_renders(self, lossy_session):
        dot = to_dot(lossy_session.prov_records[:200],
                     lossy_session.spans)
        assert dot.startswith("digraph provenance")

    def test_dot_spine_is_the_span_tree(self, lossy_session):
        spans = lossy_session.spans
        dot = to_dot([], spans)
        links = [span for span in spans if span.parent_id is not None]
        assert dot.count("[style=solid];") == len(links)
        child = links[0]
        assert f"  n{child.parent_id} -> n{child.id} [style=solid];" in dot

    def test_loads_reads_version_1(self):
        edge = ProvEdge("issued", 1, 2, 0.5, {})
        text = dumps_provenance([edge]).replace(
            f'"version":{PROVENANCE_VERSION}', '"version":1')
        assert '"version":1}' in text
        assert [r.key() for r in loads_provenance(text)] == [edge.key()]
        with pytest.raises(ValueError, match="unsupported"):
            loads_provenance(text.replace('"version":1', '"version":3'))

    def test_flow_ids_unique_per_export(self, lossy_session):
        events = [event for event in
                  json.loads(lossy_session.trace_json())["traceEvents"]
                  if event["cat"] == "provenance"]
        assert events, "a lossy provenance run must produce flow events"
        starts = [e["id"] for e in events if e["ph"] == "s"]
        assert len(starts) == len(set(starts))
        # Every "s" has its matching "f" with the same flow id.
        finishes = {e["id"] for e in events if e["ph"] == "f"}
        assert set(starts) == finishes

    def test_trace_json_embeds_flow_events(self, lossy_session):
        payload = json.loads(lossy_session.trace_json())
        cats = {e.get("cat") for e in payload["traceEvents"]}
        assert "provenance" in cats


# ---------------------------------------------------------------------------
# Lineage: typed edges on top of the span tree


class TestLineageCensus:
    """The graph records only what the span tree does not already hold.

    A hand-off down the stack is a span's parent link, so no edge may
    join a span to its parent or child; the per-kind counts and the
    trace's flow events are pinned exactly, like the kernel pushes of
    ``tests/test_event_counts.py``.
    """

    def test_tcq_session(self, tcq_session):
        assert census(tcq_session) == {
            "kinds": {"coalesced-with": 1527, "dispatched-after": 434,
                      "note": 3773, "queued-behind": 1130,
                      "served-from-cache": 1393},
            "flow_events": 8968, "restating": 0}
        assert len(tcq_session.spans) == 12365


# ---------------------------------------------------------------------------
# Evidence chains


class TestEvidenceChains:
    def test_hops_sum_to_op_latency(self, lossy_session):
        runs = split_runs(lossy_session.spans)
        chains = explain_slowest(runs, 5, lossy_session.prov_records)
        assert len(chains) == 5
        for chain in chains:
            assert chain.hops
            assert chain.hop_total == pytest.approx(chain.duration,
                                                    rel=1e-9, abs=1e-12)

    def test_hops_tile_the_interval(self, lossy_session):
        runs = split_runs(lossy_session.spans)
        for chain in explain_slowest(runs, 5,
                                     lossy_session.prov_records):
            assert chain.hops[0].start == chain.start
            assert chain.hops[-1].end == chain.end
            for left, right in zip(chain.hops, chain.hops[1:]):
                assert left.end == right.start

    def test_slowest_ranking_is_sorted_and_deterministic(
            self, lossy_session):
        runs = split_runs(lossy_session.spans)
        ranked = slowest_ops(runs, 10)
        durations = [span.duration for _run, span in ranked]
        assert durations == sorted(durations, reverse=True)
        assert ranked == slowest_ops(runs, 10)

    def test_explain_op_matches_slowest(self, lossy_session):
        runs = split_runs(lossy_session.spans)
        run_index, op = slowest_ops(runs, 1)[0]
        located = find_op(runs, op.id)
        assert located == (run_index, op)
        chain = explain_op(runs, run_index, op,
                           lossy_session.prov_records)
        assert chain.op_id == op.id
        rendered = chain.render()
        assert f"op #{op.id}" in rendered

    def test_chains_carry_provenance_annotations(self, lossy_session):
        # A 2 % lossy run must show retransmission evidence somewhere
        # in its slowest ops' chains.
        runs = split_runs(lossy_session.spans)
        chains = explain_slowest(runs, 10, lossy_session.prov_records)
        notes = [note for chain in chains for hop in chain.hops
                 for note in hop.notes]
        assert notes, "slow lossy ops must carry causal annotations"

    def test_render_chains_empty_input(self):
        assert "no ops" in render_chains([])

    def test_jsonable_is_deterministic(self, lossy_session):
        runs = split_runs(lossy_session.spans)
        chains = explain_slowest(runs, 3, lossy_session.prov_records)
        once = json.dumps([c.to_jsonable() for c in chains],
                          sort_keys=True)
        again = json.dumps([c.to_jsonable() for c in explain_slowest(
            runs, 3, lossy_session.prov_records)], sort_keys=True)
        assert once == again


# ---------------------------------------------------------------------------
# Satellite: retry/reply attempt-window dedupe over lossy UDP


class TestAttemptDedupe:
    def test_attempt_windows_close_exactly_once(self):
        config = TestbedConfig(loss_rate=0.05, seed=11)
        captured = {}

        from repro.bench import runner as bench_runner
        original = bench_runner.build_nfs_testbed

        def capture_build(cfg):
            testbed = original(cfg)
            captured["testbed"] = testbed
            return testbed

        bench_runner.build_nfs_testbed = capture_build
        try:
            with observe(trace=True, metrics=True) as session:
                run_nfs_once(config, 2, scale=SCALE)
        finally:
            bench_runner.build_nfs_testbed = original

        testbed = captured["testbed"]
        total_retransmits = sum(c.retransmitted
                                for c in testbed.rpc_clients)
        assert total_retransmits > 0, \
            "a 5% lossy run must retransmit, or the test proves nothing"
        sampled = 0
        for client in testbed.rpc_clients:
            log = client.attempt_log
            assert log, "traced lossy run must log attempt closes"
            keys = [(xid, attempt) for xid, attempt, _r, _e in log]
            assert len(keys) == len(set(keys)), \
                "an attempt window closed twice (latency double-count)"
            for xid, attempt, reason, elapsed in log:
                assert reason in ("reply", "superseded", "timeout")
                assert elapsed >= 0.0
            sampled += sum(1 for _x, attempt, reason, _e in log
                           if reason == "reply" and attempt == 0)
        # Karn's rule: the RTT histogram holds exactly the unambiguous
        # (first-attempt reply) windows — never the retried ones.
        hist = session.merged_metrics()["histograms"][
            "rpc.client.attempt_rtt_s"]
        assert hist["count"] == sampled

    def test_superseded_windows_precede_higher_attempts(self):
        config = TestbedConfig(loss_rate=0.05, seed=11)
        captured = {}
        from repro.bench import runner as bench_runner
        original = bench_runner.build_nfs_testbed

        def capture_build(cfg):
            testbed = original(cfg)
            captured["testbed"] = testbed
            return testbed

        bench_runner.build_nfs_testbed = capture_build
        try:
            with observe(trace=True) as _session:
                run_nfs_once(config, 2, scale=SCALE)
        finally:
            bench_runner.build_nfs_testbed = original
        for client in captured["testbed"].rpc_clients:
            last_attempt = {}
            for xid, attempt, reason, _e in client.attempt_log:
                previous = last_attempt.get(xid, -1)
                assert attempt == previous + 1, \
                    "attempt windows must close in order per xid"
                last_attempt[xid] = attempt


# ---------------------------------------------------------------------------
# Detector citations


class TestDetectorCitations:
    def test_zcav_cite_attaches_zone_chains(self, tcq_session):
        # The disk-bound session: its slow ops actually reach the media
        # (the lossy session's tail stalls in RPC retries instead).
        detector = ZcavDetector()
        finding = detector.finding("warning", 0.2, "zone drift",
                                   {"metric": "disk.zone*.mb_s"})
        detector.cite(inputs_from(tcq_session), finding)
        chains = finding.evidence.get("causal_chains")
        assert chains, "zcav must cite ops ending in zoned media hops"
        for chain in chains:
            zone_notes = [note for hop in chain["hops"]
                          if hop["layer"] == "disk.mechanics"
                          for note in hop["notes"] if "zone" in note]
            assert zone_notes

    def test_tcq_cite_attaches_overtake_chains(self, tcq_session):
        detector = TcqReorderingDetector()
        finding = detector.finding("critical", 0.3, "tcq reordering",
                                   {"metric": "disk.reorder_fraction"})
        detector.cite(inputs_from(tcq_session), finding)
        chains = finding.evidence.get("causal_chains")
        assert chains, "tcq must cite ops the firmware visibly stalled"
        for chain in chains:
            tcq_notes = [note for hop in chain["hops"]
                         if hop["layer"] == "disk.tcq"
                         for note in hop["notes"]]
            assert any("stalled behind" in note or "overtaken" in note
                       for note in tcq_notes)

    def test_cite_without_provenance_is_a_noop(self, lossy_session):
        detector = ZcavDetector()
        finding = detector.finding("warning", 0.2, "zone drift", {})
        inputs = DiagnosisInputs(runs=split_runs(lossy_session.spans))
        detector.cite(inputs, finding)
        assert "causal_chains" not in finding.evidence

    def test_run_detectors_invokes_cite(self, tcq_session):
        from repro.diagnose.detectors import run_detectors
        inputs = inputs_from(tcq_session)
        # Synthesize the metrics the tcq detector needs to fire, so
        # the engine path (detect -> cite) is exercised end to end.
        inputs.snapshots = [{
            "gauges": {"disk.tcq_enabled": 1.0,
                       "disk.reorder_fraction": 0.3,
                       "disk.tcq_depth": 64.0},
            "histograms": {"disk.tcq_wait_s": {
                "count": 500, "sum": 1.0, "mean": 0.002,
                "min": 0.0, "max": 0.01}},
        }]
        findings = run_detectors(inputs,
                                 [TcqReorderingDetector()])
        assert findings
        assert findings[0].evidence.get("causal_chains")


class TestCliEndToEnd:
    """The user-facing loop: ``--provenance`` artifacts in, chains out."""

    @pytest.fixture(scope="class")
    def artifacts(self, tmp_path_factory):
        """fig6 at tiny scale with every provenance artifact enabled."""
        import io
        from contextlib import redirect_stdout

        from repro.cli import main

        root = tmp_path_factory.mktemp("provenance_cli")
        paths = {"trace": str(root / "t.json"),
                 "prov": str(root / "p.jsonl"),
                 "dot": str(root / "p.dot")}
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            code = main(["fig6", "--runs", "1", "--scale", "0.015625",
                         "--trace", paths["trace"],
                         "--provenance", paths["prov"],
                         "--provenance-dot", paths["dot"]])
        assert code == 0
        out = buffer.getvalue()
        assert "provenance:" in out and "records ->" in out
        return paths

    def run_cli(self, argv):
        import io
        from contextlib import redirect_stdout

        from repro.cli import main

        buffer = io.StringIO()
        with redirect_stdout(buffer):
            code = main(argv)
        return code, buffer.getvalue()

    def test_artifacts_well_formed(self, artifacts):
        with open(artifacts["prov"]) as handle:
            records = loads_provenance(handle.read())
        assert records
        with open(artifacts["dot"]) as handle:
            assert handle.read().startswith("digraph provenance")

    def test_slowest_text_and_json(self, artifacts):
        argv = ["diagnose", "--trace", artifacts["trace"],
                "--provenance", artifacts["prov"], "--slowest", "3"]
        code, text = self.run_cli(argv)
        assert code == 0
        assert text.count("op #") >= 3
        code, out = self.run_cli(argv + ["--json"])
        assert code == 0
        chains = json.loads(out)
        assert len(chains) == 3
        for chain in chains:
            total = sum(hop["duration_s"] for hop in chain["hops"])
            assert total == pytest.approx(chain["duration_s"],
                                          rel=1e-9, abs=1e-12)
        # The verb is deterministic: same artifacts, same bytes.
        code, again = self.run_cli(argv + ["--json"])
        assert (code, again) == (0, out)

    def test_op_lookup_and_missing_op(self, artifacts):
        code, out = self.run_cli(
            ["diagnose", "--trace", artifacts["trace"],
             "--provenance", artifacts["prov"], "--slowest", "1",
             "--json"])
        assert code == 0
        op_id = json.loads(out)[0]["op"]
        code, text = self.run_cli(
            ["diagnose", "--trace", artifacts["trace"],
             "--provenance", artifacts["prov"], "--op", str(op_id)])
        assert code == 0
        assert f"op #{op_id}" in text
        code, _text = self.run_cli(
            ["diagnose", "--trace", artifacts["trace"],
             "--provenance", artifacts["prov"], "--op", "999999999"])
        assert code == 2

    def test_rootcause_flags_require_trace(self, capsys):
        import sys

        from repro.cli import main

        old = sys.stderr
        sys.stderr = io = __import__("io").StringIO()
        try:
            code = main(["diagnose", "--slowest", "3"])
        finally:
            sys.stderr = old
        assert code == 2
        assert "--trace" in io.getvalue()
