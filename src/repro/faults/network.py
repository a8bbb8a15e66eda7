"""Network fault injection: Gilbert–Elliott loss, corruption,
duplication, partitions.

One :class:`NetworkFaultInjector` serves one *direction* of one link
(the same granularity as :class:`repro.net.link.Link`), with its own
random stream, so the loss processes on independent links are
independent — and a run is bit-for-bit reproducible under a fixed
master seed.
"""

from __future__ import annotations

import random
from typing import Optional, Tuple

from .spec import NetworkFaults

#: Datagram fates returned by :meth:`NetworkFaultInjector.datagram_fate`.
DELIVER = "deliver"
DUPLICATE = "duplicate"
DROP_LOSS = "drop-loss"
DROP_CORRUPT = "drop-corrupt"
DROP_PARTITION = "drop-partition"


class GilbertElliott:
    """The classic two-state burst-loss chain, stepped once per frame."""

    __slots__ = ("p_enter_bad", "p_exit_bad", "loss_good", "loss_bad",
                 "_rng", "bad")

    def __init__(self, spec: NetworkFaults, rng: random.Random):
        self.p_enter_bad = spec.p_enter_bad
        self.p_exit_bad = spec.p_exit_bad
        self.loss_good = spec.loss_good
        self.loss_bad = spec.loss_bad
        self._rng = rng
        self.bad = False

    def step(self) -> bool:
        """Advance one frame; return True iff that frame is lost."""
        rng = self._rng
        if self.bad:
            if rng.random() < self.p_exit_bad:
                self.bad = False
        elif self.p_enter_bad > 0.0 and rng.random() < self.p_enter_bad:
            self.bad = True
        loss = self.loss_bad if self.bad else self.loss_good
        return loss > 0.0 and rng.random() < loss


class NetworkFaultInjector:
    """Decides the fate of every frame crossing one link direction."""

    def __init__(self, spec: NetworkFaults, rng: random.Random,
                 name: str = "net-faults"):
        self.spec = spec
        self.name = name
        self._rng = rng
        self._chain = GilbertElliott(spec, rng)
        #: Sorted, non-overlapping partition windows as (start, end).
        self._windows: Tuple[Tuple[float, float], ...] = tuple(sorted(
            (start, start + duration)
            for start, duration in spec.partitions))
        #: Scheduled loss bursts as (start, end, per-frame loss).
        self._bursts: Tuple[Tuple[float, float, float], ...] = \
            tuple(sorted((start, start + duration, loss)
                         for start, duration, loss in spec.burst_windows))
        self.frames_seen = 0
        self.frames_lost = 0
        self.frames_corrupted = 0
        self.datagrams_duplicated = 0
        self.partition_drops = 0
        self.burst_losses = 0

    # ------------------------------------------------------------------

    def partition_wait(self, now: float) -> float:
        """Seconds until the current partition window ends (0 if none)."""
        for start, end in self._windows:
            if start <= now < end:
                return end - now
        return 0.0

    def _step_frames(self, frames: int) -> Tuple[int, int]:
        """Step the chain ``frames`` times; return (lost, corrupted).

        The chain is stepped for *every* frame even when an early frame
        already doomed the datagram, so its trajectory (and hence every
        later decision) does not depend on message boundaries — a
        determinism property the tests rely on.
        """
        lost = corrupted = 0
        corrupt_rate = self.spec.corrupt_rate
        for _ in range(frames):
            self.frames_seen += 1
            if self._chain.step():
                self.frames_lost += 1
                lost += 1
            elif corrupt_rate > 0.0 and self._rng.random() < corrupt_rate:
                self.frames_corrupted += 1
                corrupted += 1
        return lost, corrupted

    def _burst_rate(self, now: Optional[float]) -> float:
        """Per-frame loss of the burst window open at ``now`` (0 if none)."""
        if now is None:
            return 0.0
        for start, end, loss in self._bursts:
            if start <= now < end:
                return loss
        return 0.0

    def _burst_frames_lost(self, frames: int, now: Optional[float]) -> int:
        """Draw scheduled-burst losses for ``frames`` frames at ``now``.

        Drawn *after* :meth:`_step_frames` so the chain's trajectory is
        unchanged by the presence of burst windows — schedules that
        differ only in bursts share the rest of their randomness.
        """
        rate = self._burst_rate(now)
        if rate <= 0.0:
            return 0
        lost = 0
        for _ in range(frames):
            if self._rng.random() < rate:
                lost += 1
        self.frames_lost += lost
        self.burst_losses += lost
        return lost

    def frame_losses(self, frames: int, now: Optional[float] = None) -> int:
        """TCP semantics: each dead frame costs one segment recovery."""
        lost, corrupted = self._step_frames(frames)
        lost += self._burst_frames_lost(frames, now)
        return lost + corrupted

    def datagram_fate(self, frames: int, now: float) -> str:
        """UDP semantics: the datagram survives only if every frame does."""
        if self.partition_wait(now) > 0.0:
            self.partition_drops += 1
            return DROP_PARTITION
        lost, corrupted = self._step_frames(frames)
        lost += self._burst_frames_lost(frames, now)
        if lost > 0:
            return DROP_LOSS
        if corrupted > 0:
            return DROP_CORRUPT
        if (self.spec.duplicate_rate > 0.0
                and self._rng.random() < self.spec.duplicate_rate):
            self.datagrams_duplicated += 1
            return DUPLICATE
        return DELIVER
