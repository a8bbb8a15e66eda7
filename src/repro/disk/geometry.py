"""Zoned (ZCAV) disk geometry.

Modern drives record more sectors on outer tracks than inner ones (zoned
constant angular velocity, §5.1 of the paper).  At fixed RPM the media
transfer rate is therefore proportional to sectors-per-track, giving the
characteristic outer:inner rate ratio of roughly 3:2 that Figure 1
exposes.

Geometry here is deliberately simple: a disk is a list of
:class:`Zone` regions, each spanning a contiguous range of cylinders with
a constant sectors-per-track count.  LBAs map to (cylinder, head, sector)
in the usual nested order: cylinders contain tracks (one per head),
tracks contain sectors.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import List, Sequence, Tuple

SECTOR_SIZE = 512


@dataclass(frozen=True)
class Zone:
    """A contiguous band of cylinders with constant track capacity."""

    cylinders: int
    sectors_per_track: int

    def __post_init__(self):
        if self.cylinders <= 0:
            raise ValueError("zone must span at least one cylinder")
        if self.sectors_per_track <= 0:
            raise ValueError("zone must have positive sectors per track")


class DiskGeometry:
    """Immutable zoned geometry with LBA <-> CHS translation.

    Parameters
    ----------
    name:
        Human label (e.g. ``"WD200BB"``).
    rpm:
        Spindle speed; fixes the revolution time and, with each zone's
        sectors-per-track, the per-zone media rate.
    heads:
        Tracks per cylinder.
    zones:
        Outermost zone first (LBA 0 lives on the outer edge, which is how
        drives are actually numbered and why partition 1 is fast).
    """

    def __init__(self, name: str, rpm: float, heads: int,
                 zones: Sequence[Zone]):
        if rpm <= 0:
            raise ValueError("rpm must be positive")
        if heads <= 0:
            raise ValueError("heads must be positive")
        if not zones:
            raise ValueError("need at least one zone")
        self.name = name
        self.rpm = rpm
        self.heads = heads
        self.zones: Tuple[Zone, ...] = tuple(zones)
        self.revolution_time = 60.0 / rpm

        # Cumulative boundaries for fast lookup.
        self._zone_first_cyl: List[int] = []
        self._zone_first_lba: List[int] = []
        cyl = 0
        lba = 0
        for zone in self.zones:
            self._zone_first_cyl.append(cyl)
            self._zone_first_lba.append(lba)
            cyl += zone.cylinders
            lba += zone.cylinders * heads * zone.sectors_per_track
        self.cylinders = cyl
        self.total_sectors = lba
        self.capacity_bytes = lba * SECTOR_SIZE

    # ------------------------------------------------------------------

    def __repr__(self) -> str:
        gib = self.capacity_bytes / (1 << 30)
        return (f"<DiskGeometry {self.name} {gib:.1f}GiB "
                f"{self.cylinders}cyl {len(self.zones)}zones>")

    def zone_index_of_lba(self, lba: int) -> int:
        self._check_lba(lba)
        return bisect.bisect_right(self._zone_first_lba, lba) - 1

    def zone_of_lba(self, lba: int) -> Zone:
        return self.zones[self.zone_index_of_lba(lba)]

    def cylinder_of_lba(self, lba: int) -> int:
        zi = self.zone_index_of_lba(lba)
        zone = self.zones[zi]
        offset = lba - self._zone_first_lba[zi]
        return self._zone_first_cyl[zi] + offset // (
            zone.sectors_per_track * self.heads)

    def lba_to_chs(self, lba: int) -> Tuple[int, int, int]:
        """Translate an LBA to (cylinder, head, sector-in-track)."""
        zi = self.zone_index_of_lba(lba)
        zone = self.zones[zi]
        offset = lba - self._zone_first_lba[zi]
        spt = zone.sectors_per_track
        per_cyl = spt * self.heads
        cyl = self._zone_first_cyl[zi] + offset // per_cyl
        rem = offset % per_cyl
        return cyl, rem // spt, rem % spt

    def chs_to_lba(self, cylinder: int, head: int, sector: int) -> int:
        if not 0 <= cylinder < self.cylinders:
            raise ValueError(f"cylinder {cylinder} out of range")
        if not 0 <= head < self.heads:
            raise ValueError(f"head {head} out of range")
        zi = bisect.bisect_right(self._zone_first_cyl, cylinder) - 1
        zone = self.zones[zi]
        if not 0 <= sector < zone.sectors_per_track:
            raise ValueError(f"sector {sector} out of range for zone {zi}")
        lba = (self._zone_first_lba[zi]
               + (cylinder - self._zone_first_cyl[zi])
               * zone.sectors_per_track * self.heads
               + head * zone.sectors_per_track
               + sector)
        return lba

    # ------------------------------------------------------------------

    def media_rate(self, lba: int) -> float:
        """Sustained media transfer rate (bytes/s) at ``lba``.

        One track per revolution: rate = spt * SECTOR_SIZE / rev_time.
        """
        zone = self.zone_of_lba(lba)
        return (zone.sectors_per_track * SECTOR_SIZE
                / self.revolution_time)

    def angle_of_lba(self, lba: int) -> float:
        """Angular position of a sector as a fraction of a revolution."""
        zi = self.zone_index_of_lba(lba)
        zone = self.zones[zi]
        sector_in_track = (lba - self._zone_first_lba[zi]) % \
            zone.sectors_per_track
        return sector_in_track / zone.sectors_per_track

    def _check_lba(self, lba: int) -> None:
        if not 0 <= lba < self.total_sectors:
            raise ValueError(
                f"LBA {lba} out of range [0, {self.total_sectors})")


def make_linear_zcav_zones(num_zones: int, cylinders: int,
                           outer_spt: int, inner_spt: int) -> List[Zone]:
    """Build zones whose track capacity falls linearly outer -> inner.

    A convenient way to express the paper's "typically 2:3, sometimes
    1:2" inner:outer capacity ratio without enumerating real zone
    tables.
    """
    if num_zones < 1:
        raise ValueError("need at least one zone")
    if inner_spt > outer_spt:
        raise ValueError("outer zone must be at least as dense as inner")
    base = cylinders // num_zones
    extra = cylinders % num_zones
    zones = []
    for i in range(num_zones):
        if num_zones == 1:
            spt = outer_spt
        else:
            frac = i / (num_zones - 1)
            spt = round(outer_spt + (inner_spt - outer_spt) * frac)
        ncyl = base + (1 if i < extra else 0)
        zones.append(Zone(cylinders=ncyl, sectors_per_track=spt))
    return zones
