"""Unit tests for the shared cursor pool (the paper's §8 extension)."""

import pytest

from repro.readahead import (CursorHeuristic, ReadState,
                             SharedCursorPool)

BLOCK = 8 * 1024


class TestSingleFile:
    def test_sequential_stream_matures(self):
        pool = SharedCursorPool()
        state = ReadState()
        counts = [pool.observe(state, index * BLOCK, BLOCK, fh="f")
                  for index in range(10)]
        assert counts == list(range(1, 11))

    def test_stride_arms_each_get_a_cursor(self):
        pool = SharedCursorPool()
        arm_span = 10_000 * BLOCK
        state = ReadState()
        final = 0
        for index in range(10):
            for arm in range(12):
                final = pool.observe(
                    state, arm * arm_span + index * BLOCK, BLOCK,
                    now=float(index * 12 + arm), fh="f")
        # Twelve arms — beyond the per-file heuristic's default budget
        # of eight — all mature in the shared pool.
        assert len(pool.cursors_of("f")) == 12
        assert final >= 9

    def test_beats_per_file_cursor_limit(self):
        """The §8 motivation: more arms than the per-file budget."""
        arms = 16
        arm_span = 10_000 * BLOCK

        def run(heuristic, **kwargs):
            state = ReadState()
            counts = []
            step = 0
            for index in range(10):
                for arm in range(arms):
                    counts.append(heuristic.observe(
                        state, arm * arm_span + index * BLOCK, BLOCK,
                        now=float(step), **kwargs))
                    step += 1
            return counts[-arms:]

        pooled = run(SharedCursorPool(pool_size=64), fh="f")
        per_file = run(CursorHeuristic(cursor_limit=8))
        assert min(pooled) > 4 * max(per_file)


class TestCrossFile:
    def test_files_do_not_share_cursors(self):
        pool = SharedCursorPool()
        state_a, state_b = ReadState(), ReadState()
        for index in range(5):
            pool.observe(state_a, index * BLOCK, BLOCK, fh="a")
        # Same offsets, different file: must not match file a's cursor.
        count = pool.observe(state_b, 5 * BLOCK, BLOCK, fh="b")
        assert count == 1
        assert len(pool.cursors_of("a")) == 1
        assert len(pool.cursors_of("b")) == 1

    def test_idle_files_release_capacity(self):
        """Unlike per-handle reservations, idle files hold nothing."""
        pool = SharedCursorPool(pool_size=4)
        state = ReadState()
        for name in ("a", "b", "c", "d"):
            pool.observe(state, 0, BLOCK, now=0.0, fh=name)
        # A busy file can now claim every slot, evicting idle files LRU.
        for index in range(8):
            pool.observe(state, index * 100_000 * BLOCK, BLOCK,
                         now=1.0 + index, fh="busy")
        assert len(pool.cursors_of("busy")) == 4
        assert pool.stats.cross_file_recycles >= 4

    def test_pool_size_is_hard_cap(self):
        pool = SharedCursorPool(pool_size=8)
        state = ReadState()
        for index in range(100):
            pool.observe(state, index * 50_000 * BLOCK, BLOCK,
                         now=float(index), fh=f"file{index % 10}")
        assert len(pool.cursors) == 8


class TestValidationAndStats:
    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            SharedCursorPool(pool_size=0)

    def test_zero_length_access_rejected(self):
        with pytest.raises(ValueError):
            SharedCursorPool().observe(ReadState(), 0, 0, fh="f")

    def test_stats_accumulate(self):
        pool = SharedCursorPool(pool_size=2)
        state = ReadState()
        for index in range(4):
            pool.observe(state, index * 90_000 * BLOCK, BLOCK,
                         now=float(index), fh="f")
        assert pool.stats.observations == 4
        assert pool.stats.allocations == 4
        assert pool.stats.recycles == 2

    def test_state_mirroring_optional(self):
        pool = SharedCursorPool()
        assert pool.observe(None, 0, BLOCK, fh="f") == 1


class TestEndToEnd:
    def test_pooled_cursor_usable_as_server_heuristic(self):
        from repro.bench.runner import run_stride_once
        from repro.host import TestbedConfig

        pooled = run_stride_once(
            TestbedConfig(server_heuristic="pooled-cursor",
                          nfsheur="improved"), 8, scale=1 / 64)
        default = run_stride_once(
            TestbedConfig(server_heuristic="default"), 8, scale=1 / 64)
        assert pooled.throughput_mb_s > default.throughput_mb_s
