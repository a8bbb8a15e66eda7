"""Seeded chaos schedules: composable fault timelines.

A :class:`ChaosSchedule` is a small, declarative list of
:class:`FaultEvent` s — crash the server at t=3.2 for 1.5 s, open a
loss burst from t=6 to t=9 — that compiles down to the repository's
:class:`~repro.faults.spec.FaultSpec` primitives.  Keeping the schedule
as *data* (not code) is what makes the rest of the chaos engine work:
the fuzzer enumerates schedules from a seed, the shrinker edits them,
and the repro bundle serialises them to JSON and back bit-identically.

The :class:`ScheduleFuzzer` derives every schedule from
``derive_seed(seed, "chaos-schedule-<index>")``, so schedule ``i`` of a
campaign is a pure function of ``(seed, i)`` — independent of the
budget, of earlier schedules, and of whatever the engine did with them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, Tuple

from ..faults import FaultSpec
from ..faults.spec import DiskFaults, NetworkFaults, ServerFaults
from ..sim.rand import derive_seed

#: Every fault kind a schedule may contain, in canonical order.
FAULT_KINDS: Tuple[str, ...] = (
    "crash", "stall", "partition", "loss_burst", "disk_error")


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault.

    ``kind`` selects the primitive; ``start``/``duration`` place it on
    the simulated clock; ``rate`` carries the kind's intensity where one
    applies (per-frame loss for ``loss_burst``, per-read media-error
    probability for ``disk_error`` — whose window is advisory, as the
    drive model takes a run-wide rate).
    """

    kind: str
    start: float
    duration: float
    rate: float = 0.0

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.start < 0 or self.duration <= 0:
            raise ValueError("events need start >= 0 and duration > 0")
        if self.rate < 0:
            raise ValueError("rate cannot be negative")

    def to_jsonable(self) -> dict:
        return {"kind": self.kind, "start": self.start,
                "duration": self.duration, "rate": self.rate}

    @staticmethod
    def from_jsonable(data: dict) -> "FaultEvent":
        return FaultEvent(kind=data["kind"], start=data["start"],
                          duration=data["duration"],
                          rate=data.get("rate", 0.0))


@dataclass(frozen=True)
class ChaosSchedule:
    """An ordered fault timeline plus the workload horizon it targets."""

    events: Tuple[FaultEvent, ...] = ()
    horizon: float = 20.0

    def __post_init__(self):
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")

    def of_kind(self, kind: str) -> Tuple[FaultEvent, ...]:
        return tuple(e for e in self.events if e.kind == kind)

    def without(self, index: int) -> "ChaosSchedule":
        """The schedule minus event ``index`` (shrinker primitive)."""
        events = self.events[:index] + self.events[index + 1:]
        return ChaosSchedule(events=events, horizon=self.horizon)

    def with_event(self, index: int,
                   event: FaultEvent) -> "ChaosSchedule":
        """The schedule with event ``index`` replaced (shrinker
        primitive for narrowing durations and rates)."""
        events = (self.events[:index] + (event,)
                  + self.events[index + 1:])
        return ChaosSchedule(events=events, horizon=self.horizon)

    def to_fault_spec(self) -> FaultSpec:
        """Compile to the injector-level :class:`FaultSpec`.

        * ``crash`` → :class:`ServerFaults` crash times; the restart
          delay is the longest crash duration (the injector takes one).
        * ``stall`` → nfsd stall times, duration likewise maximised.
        * ``partition`` → link partition windows.
        * ``loss_burst`` → scheduled :attr:`NetworkFaults.burst_windows`.
        * ``disk_error`` → run-wide media-error rate (the maximum of the
          scheduled events; the drive model is not windowed).
        """
        crashes = self.of_kind("crash")
        stalls = self.of_kind("stall")
        partitions = self.of_kind("partition")
        bursts = self.of_kind("loss_burst")
        disk_errors = self.of_kind("disk_error")

        server = None
        if crashes or stalls:
            server = ServerFaults(
                crash_times=tuple(sorted(e.start for e in crashes)),
                restart_delay=(max(e.duration for e in crashes)
                               if crashes else 2.0),
                stall_times=tuple(sorted(e.start for e in stalls)),
                stall_duration=(max(e.duration for e in stalls)
                                if stalls else 0.5))
        network = None
        if partitions or bursts:
            network = NetworkFaults(
                partitions=tuple(sorted(
                    (e.start, e.duration) for e in partitions)),
                burst_windows=tuple(sorted(
                    (e.start, e.duration, e.rate) for e in bursts)))
        disk = None
        if disk_errors:
            disk = DiskFaults(
                media_error_rate=max(e.rate for e in disk_errors))
        return FaultSpec(network=network, disk=disk, server=server)

    def to_jsonable(self) -> dict:
        return {"horizon": self.horizon,
                "events": [e.to_jsonable() for e in self.events]}

    @staticmethod
    def from_jsonable(data: dict) -> "ChaosSchedule":
        return ChaosSchedule(
            events=tuple(FaultEvent.from_jsonable(e)
                         for e in data["events"]),
            horizon=data["horizon"])


class ScheduleFuzzer:
    """Enumerates schedules deterministically from a master seed.

    All drawn values are rounded to millisecond-class precision so the
    JSON round trip through a repro bundle is exact (floats with three
    decimals survive ``repr`` ↔ ``json`` unchanged).
    """

    def __init__(self, seed: int, horizon: float = 20.0,
                 max_events: int = 4):
        if max_events < 1:
            raise ValueError("max_events must be at least 1")
        self.seed = seed
        self.horizon = horizon
        self.max_events = max_events

    def schedule(self, index: int) -> ChaosSchedule:
        """Schedule ``index`` — a pure function of ``(seed, index)``."""
        rng = random.Random(
            derive_seed(self.seed, f"chaos-schedule-{index}"))
        count = rng.randint(1, self.max_events)
        events = []
        for _ in range(count):
            kind = rng.choice(FAULT_KINDS)
            start = round(rng.uniform(0.5, self.horizon * 0.8), 3)
            rate = 0.0
            if kind == "crash":
                duration = round(rng.uniform(0.5, 3.0), 3)
            elif kind == "stall":
                duration = round(rng.uniform(0.2, 2.0), 3)
            elif kind == "partition":
                duration = round(rng.uniform(0.3, 3.0), 3)
            elif kind == "loss_burst":
                duration = round(rng.uniform(0.5, 4.0), 3)
                rate = round(rng.uniform(0.1, 0.6), 3)
            else:  # disk_error
                duration = round(rng.uniform(1.0, 5.0), 3)
                rate = round(rng.uniform(0.001, 0.01), 4)
            events.append(FaultEvent(kind=kind, start=start,
                                     duration=duration, rate=rate))
        events.sort(key=lambda e: (e.start, e.kind))
        return ChaosSchedule(events=tuple(events), horizon=self.horizon)

    def schedules(self, budget: int) -> Iterator[ChaosSchedule]:
        for index in range(budget):
            yield self.schedule(index)
