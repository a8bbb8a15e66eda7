"""Disk head mechanics: seek curve and rotational position.

The seek model is the classic two-piece curve (Ruemmler & Wilkes): for
short seeks the arm is acceleration-bound (``a + b * sqrt(d)``), for long
seeks it coasts (``c + e * d``).  The two pieces are fitted from three
data-sheet numbers — track-to-track, average, and full-stroke seek time —
so drive presets can be written straight from vendor specifications.

Rotation is modelled by absolute spindle phase: the platter angle at
simulated time ``t`` is ``(t / rev_time) mod 1``, so rotational latency to
a target sector is a pure function of the clock.  This is what makes
back-to-back sequential transfers free of rotational delay and random
ones pay, on average, half a revolution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

#: Boundary between the sqrt and linear seek regimes, as a fraction of
#: the cylinder count.
KNEE_FRACTION = 0.25


@dataclass(frozen=True)
class SeekModel:
    """Two-piece seek-time curve fitted from data-sheet numbers.

    Parameters are in seconds; ``distance`` arguments are cylinder
    counts.
    """

    track_to_track: float
    average: float
    full_stroke: float
    cylinders: int

    def __post_init__(self):
        if not (0 < self.track_to_track <= self.average <= self.full_stroke):
            raise ValueError("need 0 < track_to_track <= average <= full")
        if self.cylinders < 2:
            raise ValueError("need at least two cylinders")

        knee = max(2, int(self.cylinders * KNEE_FRACTION))
        # Short regime: a + b*sqrt(d), anchored at d=1 (track-to-track)
        # and d = cylinders/3 (the distance whose seek is, for a uniform
        # random workload, approximately the average seek).
        avg_dist = max(2, self.cylinders // 3)
        b = (self.average - self.track_to_track) / (
            math.sqrt(avg_dist) - 1.0)
        a = self.track_to_track - b
        # Long regime: line through (knee, short(knee)) and
        # (cylinders-1, full_stroke).
        short_at_knee = a + b * math.sqrt(knee)
        span = (self.cylinders - 1) - knee
        slope = (self.full_stroke - short_at_knee) / span if span > 0 else 0.0
        object.__setattr__(self, "_knee", knee)
        object.__setattr__(self, "_a", a)
        object.__setattr__(self, "_b", b)
        object.__setattr__(self, "_slope", slope)
        object.__setattr__(self, "_short_at_knee", short_at_knee)

    def seek_time(self, distance: int) -> float:
        """Seconds to move the arm ``distance`` cylinders (0 => 0)."""
        if distance < 0:
            raise ValueError("seek distance cannot be negative")
        if distance == 0:
            return 0.0
        if distance <= self._knee:
            return self._a + self._b * math.sqrt(distance)
        return self._short_at_knee + self._slope * (distance - self._knee)


@dataclass(frozen=True)
class RotationModel:
    """Spindle phase as a function of the simulation clock."""

    rpm: float

    @property
    def revolution_time(self) -> float:
        return 60.0 / self.rpm

    def angle_at(self, now: float) -> float:
        """Platter angle at time ``now`` as a fraction of a revolution."""
        rev = self.revolution_time
        return (now / rev) % 1.0

    def latency_to(self, now: float, target_angle: float) -> float:
        """Seconds until ``target_angle`` next passes under the head."""
        if not 0.0 <= target_angle < 1.0:
            target_angle %= 1.0
        delta = (target_angle - self.angle_at(now)) % 1.0
        return delta * self.revolution_time
