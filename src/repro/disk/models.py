"""Drive presets approximating the paper's two benchmark disks, plus the
four-way partitioning the authors used (§4.1, §5.1).

The presets are *approximations from data sheets*, not measurements of
the authors' units: what matters for the reproduction is the outer:inner
media-rate ratio (~3:2), the RPM class (10k SCSI vs 7200 IDE), the seek
class, and the firmware character (server-class SCSI with tagged
queueing and LRU segment recycling vs desktop IDE with no TCQ and
simpler cache management).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..sim import Simulator
from .drive import DiskDrive
from .geometry import SECTOR_SIZE, DiskGeometry, make_linear_zcav_zones
from .mechanics import SeekModel

MB = 1024 * 1024


@dataclass(frozen=True)
class DriveSpec:
    """Everything needed to instantiate a drive of a given model."""

    name: str
    rpm: float
    heads: int
    cylinders: int
    num_zones: int
    outer_spt: int                 # sectors per track, outermost zone
    inner_spt: int                 # sectors per track, innermost zone
    seek_track_to_track: float
    seek_average: float
    seek_full_stroke: float
    interface_rate: float          # bytes/s
    cache_segments: int
    cache_replacement: str
    supports_tagged_queueing: bool
    tcq_depth: int
    command_overhead: float

    def geometry(self) -> DiskGeometry:
        zones = make_linear_zcav_zones(
            self.num_zones, self.cylinders, self.outer_spt, self.inner_spt)
        return DiskGeometry(self.name, self.rpm, self.heads, zones)

    def seek_model(self) -> SeekModel:
        return SeekModel(track_to_track=self.seek_track_to_track,
                         average=self.seek_average,
                         full_stroke=self.seek_full_stroke,
                         cylinders=self.cylinders)

    def build(self, sim: Simulator, tagged_queueing: Optional[bool] = None,
              name: Optional[str] = None,
              bus=None, faults=None) -> DiskDrive:
        """Instantiate a :class:`DiskDrive` from this spec.

        ``tagged_queueing`` defaults to the drive's capability (the
        FreeBSD kernel enables TCQ whenever the drive advertises it).
        Requesting TCQ on a drive that does not support it raises.
        """
        if tagged_queueing is None:
            tagged_queueing = self.supports_tagged_queueing
        if tagged_queueing and not self.supports_tagged_queueing:
            raise ValueError(f"{self.name} has no tagged command queue")
        geometry = self.geometry()
        return DiskDrive(
            sim, geometry, self.seek_model(),
            interface_rate=self.interface_rate,
            cache_segments=self.cache_segments,
            cache_replacement=self.cache_replacement,
            tcq_depth=self.tcq_depth,
            command_overhead=self.command_overhead,
            tagged_queueing=tagged_queueing,
            bus=bus,
            faults=faults,
            name=name or self.name)


# ---------------------------------------------------------------------------
# The paper's two benchmark drives.
# ---------------------------------------------------------------------------

#: IBM DDYS-T36950N ("Ultrastar 36LZX" class): 36.9 GB, 10k RPM SCSI-3,
#: Ultra160 interface, tagged command queueing, 4 MB buffer.
IBM_DDYS_T36950N = DriveSpec(
    name="DDYS-T36950N",
    rpm=10_000,
    heads=10,
    cylinders=22_500,
    num_zones=14,
    outer_spt=390,                # ~33 MB/s outer media rate
    inner_spt=260,                # ~22 MB/s inner (2:3 ratio)
    seek_track_to_track=0.0006,
    seek_average=0.0049,
    seek_full_stroke=0.0105,
    interface_rate=160 * MB,      # Ultra160 SCSI
    cache_segments=16,
    cache_replacement="lru",
    supports_tagged_queueing=True,
    tcq_depth=64,
    command_overhead=0.0001,
)

#: Western Digital WD200BB: 20 GB, 7200 RPM IDE, ATA/66 interface,
#: no tagged queueing, 2 MB buffer with simpler segment management.
WDC_WD200BB = DriveSpec(
    name="WD200BB",
    rpm=7_200,
    heads=6,
    cylinders=11_000,
    num_zones=12,
    outer_spt=715,                # ~44 MB/s outer media rate
    inner_spt=470,                # ~29 MB/s inner
    seek_track_to_track=0.002,
    seek_average=0.0089,
    seek_full_stroke=0.021,
    interface_rate=66 * MB,       # ATA/66
    cache_segments=8,
    cache_replacement="mru",
    supports_tagged_queueing=False,
    tcq_depth=1,
    command_overhead=0.00015,
)


# ---------------------------------------------------------------------------
# Partitions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Partition:
    """A contiguous LBA range of a drive (``scsi1`` ... ``ide4``).

    Partition 1 occupies the outermost (fastest) cylinders, partition 4
    the innermost — the layout behind Figure 1's ZCAV contrast.
    """

    name: str
    first_lba: int
    sectors: int

    @property
    def end_lba(self) -> int:
        return self.first_lba + self.sectors

    @property
    def capacity_bytes(self) -> int:
        return self.sectors * SECTOR_SIZE


def make_partitions(geometry: DiskGeometry, count: int = 4,
                    prefix: str = "part") -> List[Partition]:
    """Split a drive into ``count`` roughly equal partitions, 1..count."""
    if count < 1:
        raise ValueError("need at least one partition")
    total = geometry.total_sectors
    base = total // count
    partitions = []
    lba = 0
    for index in range(count):
        sectors = base + (1 if index < total % count else 0)
        partitions.append(Partition(
            name=f"{prefix}{index + 1}", first_lba=lba, sectors=sectors))
        lba += sectors
    return partitions
