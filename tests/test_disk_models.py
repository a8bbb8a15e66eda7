"""Unit tests for drive presets and partitioning."""

import dataclasses

import pytest

from repro.disk import (IBM_DDYS_T36950N, Partition, WDC_WD200BB,
                        make_partitions)
from repro.sim import Simulator


class TestDriveSpecs:
    def test_scsi_preset_character(self):
        spec = IBM_DDYS_T36950N
        assert spec.rpm == 10_000
        assert spec.supports_tagged_queueing
        assert spec.cache_replacement == "lru"
        assert spec.seek_average < WDC_WD200BB.seek_average

    def test_ide_preset_character(self):
        spec = WDC_WD200BB
        assert spec.rpm == 7_200
        assert not spec.supports_tagged_queueing
        assert spec.cache_replacement == "mru"

    def test_build_applies_capability_default(self):
        sim = Simulator()
        scsi = IBM_DDYS_T36950N.build(sim)
        ide = WDC_WD200BB.build(sim)
        assert scsi.tagged_queueing
        assert not ide.tagged_queueing

    def test_build_gives_cache_the_preset_replacement(self):
        sim = Simulator()
        assert IBM_DDYS_T36950N.build(sim).cache.replacement == "lru"
        assert WDC_WD200BB.build(sim).cache.replacement == "mru"

    def test_build_rejects_unknown_replacement(self):
        spec = dataclasses.replace(IBM_DDYS_T36950N,
                                   cache_replacement="fifo")
        with pytest.raises(ValueError, match="replacement policy"):
            spec.build(Simulator())

    def test_build_names_drive(self):
        sim = Simulator()
        drive = WDC_WD200BB.build(sim, name="bench-disk")
        assert drive.name == "bench-disk"

    def test_seek_model_from_datasheet(self):
        seek = WDC_WD200BB.seek_model()
        assert seek.seek_time(1) == pytest.approx(
            WDC_WD200BB.seek_track_to_track)

    def test_ide_media_faster_than_scsi_outer(self):
        """The WD200BB's outer zone outruns the DDYS — which is why
        ide1 beats scsi1 on the local benchmark despite 7200 vs 10k
        RPM (more sectors per track)."""
        ide = WDC_WD200BB.geometry()
        scsi = IBM_DDYS_T36950N.geometry()
        assert ide.media_rate(0) > scsi.media_rate(0)


class TestPartition:
    def test_capacity(self):
        partition = Partition("p", first_lba=0, sectors=2048)
        assert partition.capacity_bytes == 2048 * 512

    def test_make_partitions_cover_disk_exactly(self):
        geometry = WDC_WD200BB.geometry()
        partitions = make_partitions(geometry, count=4)
        assert partitions[0].first_lba == 0
        assert partitions[-1].end_lba == geometry.total_sectors
        for left, right in zip(partitions, partitions[1:]):
            assert left.end_lba == right.first_lba

    def test_roughly_equal_sizes(self):
        geometry = IBM_DDYS_T36950N.geometry()
        partitions = make_partitions(geometry, count=4)
        sizes = [partition.sectors for partition in partitions]
        assert max(sizes) - min(sizes) <= 1

    def test_names_numbered_from_one(self):
        geometry = WDC_WD200BB.geometry()
        partitions = make_partitions(geometry, prefix="ide")
        assert [p.name for p in partitions] == \
            ["ide1", "ide2", "ide3", "ide4"]

    def test_bad_count_rejected(self):
        with pytest.raises(ValueError):
            make_partitions(WDC_WD200BB.geometry(), count=0)
