"""Unit tests for the firmware segmented prefetch cache."""

import pytest

from repro.disk import SegmentedCache


def cache(segments=4, sectors=512, replacement="lru"):
    return SegmentedCache(segments, sectors, replacement=replacement)


class TestLookup:
    def test_empty_cache_misses(self):
        lookup = cache().lookup(100, 16, now=0.0)
        assert not lookup.hit
        assert lookup.covered_sectors == 0

    def test_requested_sectors_hit_after_fill(self):
        c = cache()
        c.begin_fill(100, 16, fill_rate=1000.0, now=0.0)
        lookup = c.lookup(100, 16, now=0.0)
        assert lookup.hit
        assert lookup.covered_sectors == 16

    def test_prefetch_grows_with_time(self):
        c = cache()
        c.begin_fill(0, 16, fill_rate=1000.0, now=0.0)
        # After 0.1s the fill has captured 100 more sectors.
        assert c.lookup(16, 100, now=0.1).covered_sectors == 100
        assert not c.lookup(16, 101, now=0.1).continuation is None

    def test_partial_hit_with_active_fill_is_continuation(self):
        c = cache()
        c.begin_fill(0, 16, fill_rate=1000.0, now=0.0)
        lookup = c.lookup(16, 50, now=0.01)  # 10 sectors captured
        assert lookup.hit
        assert lookup.covered_sectors == 10
        assert lookup.continuation

    def test_partial_hit_after_freeze_is_not_continuation(self):
        c = cache()
        c.begin_fill(0, 16, fill_rate=1000.0, now=0.0)
        c.freeze_fills(0.01)
        lookup = c.lookup(16, 50, now=0.02)
        assert lookup.hit
        assert lookup.covered_sectors == 10
        assert not lookup.continuation

    def test_fill_capped_at_segment_limit(self):
        c = cache(sectors=100)
        c.begin_fill(0, 16, fill_rate=1e9, now=0.0)
        lookup = c.lookup(16, 200, now=10.0)
        assert lookup.covered_sectors == 100  # limit = 16 + 100 - 16

    def test_miss_before_segment_start(self):
        c = cache()
        c.begin_fill(100, 16, fill_rate=1000.0, now=0.0)
        assert not c.lookup(50, 10, now=1.0).hit


class TestFillManagement:
    def test_sequential_fill_extends_segment(self):
        c = cache(segments=2)
        first = c.begin_fill(0, 16, fill_rate=1000.0, now=0.0)
        second = c.begin_fill(16, 16, fill_rate=1000.0, now=0.001)
        assert first is second
        assert len(c.segments) == 1

    def test_distinct_streams_get_distinct_segments(self):
        c = cache(segments=4)
        c.begin_fill(0, 16, 1000.0, now=0.0)
        c.begin_fill(100_000, 16, 1000.0, now=0.001)
        assert len(c.segments) == 2

    def test_lru_eviction(self):
        c = cache(segments=2, replacement="lru")
        c.begin_fill(0, 16, 1000.0, now=0.0)
        c.begin_fill(100_000, 16, 1000.0, now=1.0)
        c.lookup(0, 4, now=2.0)               # touch stream 0
        c.begin_fill(200_000, 16, 1000.0, now=3.0)
        assert c.lookup(0, 4, now=3.0).hit         # survived
        assert not c.lookup(100_000, 4, now=3.0).hit  # evicted

    def test_mru_eviction(self):
        c = cache(segments=2, replacement="mru")
        c.begin_fill(0, 16, 1000.0, now=0.0)
        c.begin_fill(100_000, 16, 1000.0, now=1.0)
        c.freeze_fills(1.5)
        c.begin_fill(200_000, 16, 1000.0, now=2.0)
        assert c.lookup(0, 4, now=3.0).hit            # oldest survived
        assert not c.lookup(100_000, 4, now=3.0).hit  # MRU evicted

    def test_invalidate_clears_everything(self):
        c = cache()
        c.begin_fill(0, 16, 1000.0, now=0.0)
        c.invalidate()
        assert not c.lookup(0, 4, now=1.0).hit
        assert c.segments == []

    def test_freeze_caps_coverage_permanently(self):
        c = cache()
        c.begin_fill(0, 16, fill_rate=1000.0, now=0.0)
        c.freeze_fills(0.01)  # 10 extra sectors captured
        assert c.lookup(16, 10, now=5.0).covered_sectors == 10
        assert c.lookup(16, 11, now=5.0).covered_sectors == 10


class TestValidation:
    def test_bad_segment_count(self):
        with pytest.raises(ValueError):
            SegmentedCache(0, 100)

    def test_bad_segment_size(self):
        with pytest.raises(ValueError):
            SegmentedCache(4, 0)

    def test_bad_replacement(self):
        # Firmware recycles segments LRU (SCSI) or MRU (IDE), nothing else.
        for policy in ("fifo", "random"):
            with pytest.raises(ValueError):
                SegmentedCache(4, 100, replacement=policy)
