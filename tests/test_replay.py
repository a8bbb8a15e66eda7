"""Tests for the trace capture & replay subsystem (repro.replay)."""

import json
import math
import random
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench import run_nfs_once
from repro.faults import FaultSpec, ServerFaults
from repro.host import TestbedConfig
from repro.obs import observe
from repro.replay import (FORMAT_VERSION, TraceFormatError, TraceHeader,
                          capture_nfs_run, dumps_trace, loads_trace,
                          multiplex_trace, read_trace_file, replay_trace,
                          write_trace_file, zipf_weights)
from repro.replay.engine import CLOSED_LOOP, OPEN_LOOP
from repro.replay.scale import _zipf_pick
from repro.trace import OP_OPEN, OP_READ

SCALE = 1 / 64  # tiny files: tests must be fast

SOURCE = TestbedConfig(transport="udp", server_heuristic="default",
                       nfsheur="default", num_clients=2, seed=3)
TARGET = TestbedConfig(transport="tcp", server_heuristic="cursor",
                       nfsheur="improved", seed=3)


@pytest.fixture(scope="module")
def captured():
    return capture_nfs_run(SOURCE, nreaders=2, scale=SCALE)


class TestCapture:
    def test_capture_records_vnode_ops(self, captured):
        assert captured.ops > 0
        assert captured.header.clients == 2
        kinds = {record.op for record in captured.records}
        assert OP_OPEN in kinds and OP_READ in kinds
        # Two readers on two client machines: both clients appear.
        assert {record.client for record in captured.records} == {0, 1}

    def test_capture_covers_benchmark_bytes(self, captured):
        read = sum(record.count for record in captured.records
                   if record.op == OP_READ)
        assert read == sum(size for _, size in captured.header.fileset)

    def test_capture_does_not_perturb_the_run(self):
        from dataclasses import replace
        plain = run_nfs_once(SOURCE, 2, scale=SCALE)
        taped = run_nfs_once(replace(SOURCE, capture_trace=True), 2,
                             scale=SCALE)
        assert taped.throughput_mb_s == plain.throughput_mb_s
        assert plain.trace is None and taped.trace is not None

    def test_client_seq_is_per_client_program_order(self, captured):
        for client, records in captured.by_client().items():
            assert [r.client_seq for r in records] == \
                list(range(len(records)))


class TestFormat:
    def test_round_trip_is_byte_identical(self, captured):
        text = dumps_trace(captured)
        assert dumps_trace(loads_trace(text)) == text

    def test_file_round_trip(self, captured, tmp_path):
        path = tmp_path / "t.jsonl"
        write_trace_file(path, captured)
        again = read_trace_file(path)
        assert again.header == captured.header
        assert again.records == captured.records

    def test_header_is_first_line_and_self_describing(self, captured):
        first = json.loads(dumps_trace(captured).splitlines()[0])
        # A capture using only the v1 op vocabulary is written as
        # version 1 — byte-identical to the pre-namespace writer.
        assert first["version"] == 1
        assert first["block_size"] == SOURCE.rsize
        assert first["seed"] == SOURCE.seed
        assert first["config"]["transport"] == "udp"
        assert first["fileset"]

    def test_bad_inputs_rejected(self):
        with pytest.raises(TraceFormatError):
            loads_trace("")
        with pytest.raises(TraceFormatError):
            loads_trace('{"format": "something-else", "version": 1}\n')
        header = json.dumps({"format": "repro-replay-trace",
                             "version": FORMAT_VERSION + 1})
        with pytest.raises(TraceFormatError):
            loads_trace(header + "\n")


class TestReplayEngine:
    def test_closed_loop_is_deterministic(self, captured):
        first = replay_trace(captured, TARGET, mode=CLOSED_LOOP)
        second = replay_trace(captured, TARGET, mode=CLOSED_LOOP)
        assert first.summary() == second.summary()
        assert first.ops_completed == captured.ops
        assert first.errors == 0

    def test_open_loop_is_deterministic(self, captured):
        first = replay_trace(captured, TARGET, mode=OPEN_LOOP)
        second = replay_trace(captured, TARGET, mode=OPEN_LOOP)
        assert first.summary() == second.summary()

    def test_cross_config_replay_moves_all_bytes(self, captured):
        result = replay_trace(captured, TARGET, mode=CLOSED_LOOP)
        assert result.total_bytes == captured.bytes_moved
        assert result.throughput_mb_s > 0

    def test_open_vs_closed_diverge_under_a_slow_server(self, captured):
        """The load models disagree exactly when the server lags.

        A stalling server delays closed-loop completion (the client
        waits), while the open-loop client keeps issuing on schedule
        and accumulates lateness — the backlog signature the paper's
        open-vs-closed discussion is about.
        """
        from dataclasses import replace
        slow = replace(
            TARGET,
            faults=FaultSpec(server=ServerFaults(
                stall_times=(0.01,), stall_duration=2.0)))
        closed = replay_trace(captured, slow, mode=CLOSED_LOOP)
        compressed = 20.0  # compress the schedule into the stall
        opened = replay_trace(captured, slow, mode=OPEN_LOOP,
                              time_scale=compressed)
        healthy = replay_trace(captured, TARGET, mode=OPEN_LOOP,
                               time_scale=compressed)
        assert closed.lateness_s == 0.0
        assert opened.lateness_s > healthy.lateness_s > 0.0
        # The stall dominates: most of the open-loop schedule lands
        # inside it, so the backlog integral is of order ops * stall.
        assert opened.lateness_s > 10 * healthy.lateness_s
        assert opened.ops_completed == closed.ops_completed

    def test_mode_and_scale_validated(self, captured):
        with pytest.raises(ValueError):
            replay_trace(captured, TARGET, mode="sideways")
        with pytest.raises(ValueError):
            replay_trace(captured, TARGET, time_scale=0.0)

    def test_offered_load_monotone_in_clients(self, captured):
        offered = []
        for clients in (2, 4, 8):
            with observe(metrics=True):
                result = replay_trace(captured, TARGET, clients=clients)
            gauges = result.metrics["gauges"]
            assert gauges["replay.clients"] == float(clients)
            offered.append((gauges["replay.offered_ops"],
                            gauges["replay.offered_ops_s"]))
        ops, rates = zip(*offered)
        assert list(ops) == sorted(ops) and ops[0] < ops[-1]
        assert list(rates) == sorted(rates) and rates[0] < rates[-1]

    def test_offered_rate_monotone_in_time_scale(self, captured):
        rates = []
        for time_scale in (1.0, 2.0, 4.0):
            with observe(metrics=True):
                result = replay_trace(captured, TARGET, mode=OPEN_LOOP,
                                      time_scale=time_scale)
            rates.append(result.metrics["gauges"]["replay.offered_ops_s"])
        assert rates == sorted(rates) and rates[0] < rates[-1]

    def test_replayed_ops_counted_in_registry(self, captured):
        with observe(metrics=True):
            result = replay_trace(captured, TARGET)
        gauges = result.metrics["gauges"]
        assert gauges["replay.completed_ops"] == float(captured.ops)
        assert gauges["replay.lateness_s"] == 0.0


class TestScaling:
    def test_identity_when_client_count_matches(self, captured):
        """Scaling to the captured client count changes no program."""
        same = multiplex_trace(captured, captured.header.clients, seed=9)
        for client, records in captured.by_client().items():
            cloned = same.by_client()[client]
            assert [(r.time, r.op, r.path, r.offset, r.count)
                    for r in cloned] == \
                [(r.time, r.op, r.path, r.offset, r.count)
                 for r in records]

    def test_scaled_trace_is_deterministic(self, captured):
        first = multiplex_trace(captured, 6, seed=9)
        second = multiplex_trace(captured, 6, seed=9)
        assert first.records == second.records
        assert first.records != multiplex_trace(captured, 6,
                                                seed=10).records

    def test_clones_stay_inside_the_fileset(self, captured):
        scaled = multiplex_trace(captured, 8, seed=9)
        sizes = scaled.header.file_sizes()
        for record in scaled.records:
            assert record.path in sizes
            if record.op != OP_OPEN:
                assert 0 <= record.offset < sizes[record.path]
                assert record.offset + record.count <= sizes[record.path]

    def test_scaled_header_records_provenance(self, captured):
        scaled = multiplex_trace(captured, 5, seed=9)
        config = scaled.header.config_dict()
        assert scaled.header.clients == 5
        assert config["scaled_from_clients"] == captured.header.clients
        assert config["scale_seed"] == 9

    def test_zipf_weights_shape(self):
        weights = zipf_weights(5, s=1.0)
        assert weights[0] == 1.0
        assert weights == sorted(weights, reverse=True)
        with pytest.raises(ValueError):
            zipf_weights(0)


def _loop_pick(weights, total, rng):
    """The linear scan that ``_zipf_pick`` replaced, kept as the
    reference: the first index whose running sum exceeds the point."""
    point = rng.random() * total
    cumulative = 0.0
    for index, weight in enumerate(weights):
        cumulative += weight
        if point < cumulative:
            return index
    return len(weights) - 1


class _FixedDraw:
    """An rng whose every draw is ``value`` (with ``total=1.0`` the
    point is ``value`` exactly)."""

    def __init__(self, value):
        self.value = value

    def random(self):
        return self.value


weight_tables = st.lists(
    st.floats(min_value=0.0, max_value=1e6, exclude_min=True),
    min_size=1, max_size=40)


class TestZipfPick:
    @given(weight_tables, st.data())
    @settings(max_examples=300, deadline=None)
    def test_bisect_matches_the_loop_at_any_point(self, weights, data):
        cumulative = list(accumulate(weights))
        last = cumulative[-1]
        point = data.draw(st.one_of(
            st.sampled_from(cumulative),    # exactly on a running sum
            st.just(0.0),
            st.sampled_from([last, math.nextafter(last, math.inf),
                             2 * last]),    # at or past the last sum
            st.floats(min_value=0.0, max_value=last)))
        assert _zipf_pick(cumulative, 1.0, _FixedDraw(point)) == \
            _loop_pick(weights, 1.0, _FixedDraw(point))

    @given(st.integers(1, 2000), st.floats(0.0, 3.0),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_seeded_draws_match_the_loop(self, n, s, seed):
        weights = zipf_weights(n, s)
        total = sum(weights)
        cumulative = list(accumulate(weights))
        fast, slow = random.Random(seed), random.Random(seed)
        assert [_zipf_pick(cumulative, total, fast) for _ in range(50)] \
            == [_loop_pick(weights, total, slow) for _ in range(50)]


class TestHeaderValidation:
    def test_rejects_bad_parts(self):
        with pytest.raises(ValueError):
            TraceHeader.from_parts(block_size=0, fileset=[("f", 1)],
                                   seed=0, clients=1, config={})
        with pytest.raises(ValueError):
            TraceHeader.from_parts(block_size=8192, fileset=[("f", 1)],
                                   seed=0, clients=0, config={})
