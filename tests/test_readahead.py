"""Unit tests for the paper's sequentiality heuristics (§6-7)."""

import pytest

from repro.nfs import FileHandle
from repro.readahead import (AlwaysReadAheadHeuristic, CursorHeuristic,
                             DefaultHeuristic, HEURISTICS,
                             INITIAL_SEQCOUNT, MAX_SEQCOUNT, ReadState,
                             SLOWDOWN_WINDOW, SlowDownHeuristic,
                             clamp_seqcount, make_heuristic,
                             readahead_blocks)

BLOCK = 8 * 1024


@pytest.mark.parametrize("name", HEURISTICS)
def test_every_heuristic_takes_the_file_handle(name):
    """The NFS server calls every heuristic the same way, handle
    included; a per-file heuristic answers as if it were absent."""
    with_fh = make_heuristic(name).observe(ReadState(), 0, BLOCK, 0.0,
                                           fh=FileHandle(1))
    assert with_fh == make_heuristic(name).observe(ReadState(), 0, BLOCK)


def sequential_accesses(heuristic, state, nblocks, start=0):
    counts = []
    for index in range(nblocks):
        counts.append(heuristic.observe(
            state, (start + index) * BLOCK, BLOCK))
    return counts


class TestDefaultHeuristic:
    def test_sequential_accesses_increment(self):
        counts = sequential_accesses(DefaultHeuristic(), ReadState(), 5)
        assert counts == [2, 3, 4, 5, 6]

    def test_any_mismatch_resets_to_initial(self):
        heuristic, state = DefaultHeuristic(), ReadState()
        sequential_accesses(heuristic, state, 10)
        count = heuristic.observe(state, 100 * BLOCK, BLOCK)
        assert count == INITIAL_SEQCOUNT

    def test_small_jitter_also_resets(self):
        """The paper's complaint: one slightly out-of-order request
        destroys the whole accumulated score."""
        heuristic, state = DefaultHeuristic(), ReadState()
        sequential_accesses(heuristic, state, 10)
        # Next expected offset is 10*BLOCK; deliver 11*BLOCK (one early).
        assert heuristic.observe(state, 11 * BLOCK, BLOCK) == \
            INITIAL_SEQCOUNT

    def test_clamped_at_maximum(self):
        heuristic, state = DefaultHeuristic(), ReadState()
        counts = sequential_accesses(heuristic, state, 200)
        assert max(counts) == MAX_SEQCOUNT

    def test_zero_length_access_rejected(self):
        with pytest.raises(ValueError):
            DefaultHeuristic().observe(ReadState(), 0, 0)


class TestSlowDown:
    def test_rises_like_default(self):
        assert sequential_accesses(SlowDownHeuristic(), ReadState(), 4) \
            == sequential_accesses(DefaultHeuristic(), ReadState(), 4)

    def test_near_match_leaves_count_unchanged(self):
        heuristic, state = SlowDownHeuristic(), ReadState()
        sequential_accesses(heuristic, state, 10)
        before = state.seq_count
        # 2 blocks past the expected offset: within the 64 KiB window.
        count = heuristic.observe(state, 12 * BLOCK, BLOCK)
        assert count == before

    def test_window_boundary_is_inclusive(self):
        heuristic, state = SlowDownHeuristic(), ReadState()
        sequential_accesses(heuristic, state, 10)
        before = state.seq_count
        count = heuristic.observe(state, 10 * BLOCK + SLOWDOWN_WINDOW,
                                  BLOCK)
        assert count == before

    def test_far_jump_halves(self):
        heuristic, state = SlowDownHeuristic(), ReadState()
        sequential_accesses(heuristic, state, 15)
        before = state.seq_count
        count = heuristic.observe(state, 1000 * BLOCK, BLOCK)
        assert count == before // 2

    def test_random_pattern_decays_to_zero(self):
        """'Repeatedly dividing seqCount in half will quickly chop it
        down to zero' (§6.2)."""
        heuristic, state = SlowDownHeuristic(), ReadState()
        sequential_accesses(heuristic, state, 100)
        offsets = [5000 * BLOCK, 9000 * BLOCK, 100 * BLOCK,
                   7777 * BLOCK, 3 * BLOCK, 60000 * BLOCK,
                   40000 * BLOCK, 20000 * BLOCK]
        for offset in offsets:
            count = heuristic.observe(state, offset, BLOCK)
        assert count == 0

    def test_reordered_sequential_stream_keeps_high_count(self):
        """The design goal: jitter-swapped requests don't hurt."""
        heuristic, state = SlowDownHeuristic(), ReadState()
        blocks = list(range(64))
        # Swap every 8th adjacent pair.
        for index in range(0, 64, 8):
            if index + 1 < 64:
                blocks[index], blocks[index + 1] = \
                    blocks[index + 1], blocks[index]
        final = 0
        for block in blocks:
            final = heuristic.observe(state, block * BLOCK, BLOCK)
        assert final > 30

    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            SlowDownHeuristic(window=-1)


class TestAlways:
    def test_pinned_at_max(self):
        heuristic, state = AlwaysReadAheadHeuristic(), ReadState()
        assert heuristic.observe(state, 0, BLOCK) == MAX_SEQCOUNT
        assert heuristic.observe(state, 999 * BLOCK, BLOCK) == \
            MAX_SEQCOUNT


class TestCursor:
    def test_single_stream_matures_like_slowdown(self):
        """A fresh cursor earns nothing on its allocating access, then
        rises exactly as SlowDown does."""
        cursor_counts = sequential_accesses(
            CursorHeuristic(), ReadState(), 6)
        assert cursor_counts == [1, 2, 3, 4, 5, 6]

    def test_stride_pattern_gets_per_arm_counts(self):
        """The §7 scenario: 0, x, 1, x+1, ... must look sequential."""
        heuristic, state = CursorHeuristic(), ReadState()
        half = 1000 * BLOCK
        counts = []
        for index in range(20):
            counts.append(heuristic.observe(state, index * BLOCK, BLOCK))
            counts.append(heuristic.observe(state, half + index * BLOCK,
                                            BLOCK))
        # Both arms mature: late accesses carry high counts.
        assert min(counts[-4:]) >= 15
        assert len(state.cursors) == 2

    def test_many_arms_within_cursor_limit(self):
        heuristic, state = CursorHeuristic(cursor_limit=8), ReadState()
        arms = 8
        arm_span = 10_000 * BLOCK
        final = []
        for index in range(10):
            for arm in range(arms):
                final.append(heuristic.observe(
                    state, arm * arm_span + index * BLOCK, BLOCK))
        assert min(final[-arms:]) >= 8
        assert len(state.cursors) == arms

    def test_more_arms_than_cursors_recycles_lru(self):
        heuristic, state = CursorHeuristic(cursor_limit=2), ReadState()
        arm_span = 10_000 * BLOCK
        for index in range(10):
            for arm in range(4):
                count = heuristic.observe(
                    state, arm * arm_span + index * BLOCK, BLOCK,
                    now=float(index * 4 + arm))
        assert len(state.cursors) == 2
        # With constant recycling no arm can mature.
        assert count <= 2

    def test_random_pattern_never_grows(self):
        """'If the access pattern is truly random ... no extra
        read-ahead is performed' (§7)."""
        import random
        rng = random.Random(42)
        heuristic, state = CursorHeuristic(), ReadState()
        counts = []
        for step in range(200):
            offset = rng.randrange(1_000_000) * BLOCK
            counts.append(heuristic.observe(state, offset, BLOCK,
                                            now=float(step)))
        assert max(counts) <= 3

    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            CursorHeuristic(cursor_limit=0)


class TestHelpers:
    def test_clamp(self):
        assert clamp_seqcount(-5) == 0
        assert clamp_seqcount(5) == 5
        assert clamp_seqcount(9999) == MAX_SEQCOUNT

    def test_readahead_blocks_below_trigger(self):
        assert readahead_blocks(0, 16) == 0
        assert readahead_blocks(1, 16) == 0

    def test_readahead_blocks_grows_then_caps(self):
        assert readahead_blocks(2, 16) == 2
        assert readahead_blocks(10, 16) == 10
        assert readahead_blocks(127, 16) == 16

    def test_readahead_blocks_negative_cap_rejected(self):
        with pytest.raises(ValueError):
            readahead_blocks(5, -1)

    def test_make_heuristic_by_name(self):
        assert make_heuristic("default").name == "default"
        assert make_heuristic("slowdown", window=1024).window == 1024
        assert make_heuristic("cursor", cursor_limit=3).cursor_limit == 3
        with pytest.raises(ValueError):
            make_heuristic("nope")
